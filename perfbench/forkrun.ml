(* Windows run in forked children.

   Every window of an in-process workload starts from the same parent
   state (model, table, sessions built once, process-global memos as
   set-up left them), so windows are independent draws of the same
   experiment instead of points on one warming curve.  The child sends
   its result back marshalled over a pipe and leaves with [_exit], so
   it never runs the parent's [at_exit] handlers or flushes its
   buffers twice. *)

let read_all fd =
  let b = Buffer.create 4096 and chunk = Bytes.create 65536 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes b chunk 0 n;
      go ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ();
  Buffer.contents b

let write_all fd s =
  let rec go off =
    if off < String.length s then
      go (off + Unix.write_substring fd s off (String.length s - off))
  in
  go 0

(* [run f] evaluates [f ()] in a child; [Error] carries the child's
   exception text, or how it died. *)
let run (f : unit -> 'a) : ('a, string) result =
  flush_all ();
  let r, w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close r;
    let v : ('a, string) result =
      try Ok (f ()) with e -> Error (Printexc.to_string e)
    in
    (try write_all w (Marshal.to_string v []) with _ -> ());
    Unix._exit 0
  | pid ->
    Unix.close w;
    let data = read_all r in
    Unix.close r;
    let rec wait () =
      try snd (Unix.waitpid [] pid)
      with Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    in
    let status = wait () in
    if String.length data > 0 then (Marshal.from_string data 0 : ('a, string) result)
    else
      Error
        (match status with
        | Unix.WEXITED c -> Printf.sprintf "window exited with code %d" c
        | Unix.WSIGNALED s -> Printf.sprintf "window killed by signal %d" s
        | Unix.WSTOPPED s -> Printf.sprintf "window stopped by signal %d" s)

(* Peak resident set of process [pid] ("self" for this one), in MiB,
   from the kernel's VmHWM line; [nan] where /proc is unavailable. *)
let vm_hwm_mb ?(pid = "self") () =
  match open_in ("/proc/" ^ pid ^ "/status") with
  | exception Sys_error _ -> nan
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> nan
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
              float_of_int kb /. 1024.0)
        else scan ()
    in
    let v = scan () in
    close_in ic;
    v

(* Process CPU seconds (user + system) of [pid] from /proc/<pid>/stat. *)
let cpu_s ~pid =
  match open_in (Printf.sprintf "/proc/%d/stat" pid) with
  | exception Sys_error _ -> nan
  | ic ->
    let line = try input_line ic with End_of_file -> "" in
    close_in ic;
    (* Fields after the parenthesised command name; utime and stime are
       the 12th and 13th of them. *)
    (match String.rindex_opt line ')' with
    | None -> nan
    | Some i ->
      let rest = String.sub line (i + 2) (String.length line - i - 2) in
      let f = Array.of_list (String.split_on_char ' ' rest) in
      if Array.length f < 13 then nan
      else
        (float_of_string f.(11) +. float_of_string f.(12)) /. 100.0)

(* GC work of a window, from [Gc.quick_stat] before and after. *)
type gc = { minor_words : float; major_collections : int; top_heap_mb : float }

let gc_delta (a : Gc.stat) (b : Gc.stat) =
  {
    minor_words = b.Gc.minor_words -. a.Gc.minor_words;
    major_collections = b.Gc.major_collections - a.Gc.major_collections;
    top_heap_mb = float_of_int (b.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0;
  }
