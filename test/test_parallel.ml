(* Tests for Util.Parallel: the deterministic chunking contract, the
   persistent domain pool, and pooled-vs-sequential equivalence.

   Everything here runs with [~clamp:false] so true multi-domain
   schedules are exercised even on single-core CI runners — the
   determinism contract promises identical results anyway. *)

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* A cheap, index-determined workload: the merged output must equal the
   sequential map whatever the chunking or schedule. *)
let item i = (i * i) - (3 * i)
let per_index ~lo ~hi = List.init (hi - lo) (fun k -> item (lo + k))
let reference n = List.init n item

(* ------------------------------------------------------- chunking *)

let prop_bounds_exact_partition =
  QCheck2.Test.make ~name:"bounds partition [0,n) exactly" ~count:500
    QCheck2.Gen.(pair (int_range 1 64) (int_range 0 2000))
    (fun (chunks, n) ->
      let parts = Util.Parallel.bounds ~chunks ~n in
      let len = Array.length parts in
      let contiguous = ref true in
      for i = 1 to len - 1 do
        if fst parts.(i) <> snd parts.(i - 1) then contiguous := false
      done;
      len = max 1 (min chunks (max 1 n))
      && fst parts.(0) = 0
      && snd parts.(len - 1) = n
      && !contiguous
      && Array.for_all (fun (lo, hi) -> n = 0 || hi > lo) parts
      && Array.for_all
           (fun (lo, hi) -> hi - lo >= n / len && hi - lo <= (n / len) + 1)
           parts)

(* ------------------------------------------- pooled vs sequential *)

let prop_pooled_matches_sequential =
  QCheck2.Test.make ~name:"map_pooled merges to the sequential map"
    ~count:25
    QCheck2.Gen.(
      triple (int_range 0 300) (int_range 1 5) (int_range 1 64))
    (fun (n, domains, chunk_hint) ->
      List.concat
        (Util.Parallel.map_pooled ~clamp:false ~chunk_hint ~domains ~n
           (fun ~worker:_ ~chunk:_ ~lo ~hi -> per_index ~lo ~hi))
      = reference n)

(* ------------------------------------------------------------ pool *)

let test_pool_reuse () =
  Util.Parallel.Pool.with_pool ~clamp:false ~domains:4 @@ fun pool ->
  check "size honours the unclamped request" 4
    (Util.Parallel.Pool.size pool);
  (* Several rounds of different shapes over one crew: a worker left in
     a stale round (or a result slot not reset) would corrupt the next
     round's merge. *)
  for round = 1 to 5 do
    let n = 37 * round in
    let got =
      List.concat
        (Util.Parallel.Pool.map pool ~chunk_hint:1 ~n
           (fun ~worker:_ ~chunk:_ ~lo ~hi -> per_index ~lo ~hi))
    in
    checkb (Printf.sprintf "round %d merges in order" round) true
      (got = reference n)
  done

let test_pool_back_to_back_stress () =
  (* Many small rounds back-to-back shake out round-protocol races
     (missed wake-ups, stale epochs) far better than one big map. *)
  Util.Parallel.Pool.with_pool ~clamp:false ~domains:4 @@ fun pool ->
  for round = 0 to 99 do
    let n = 1 + (round * 7 mod 23) in
    let got =
      List.concat
        (Util.Parallel.Pool.map pool ~chunk_hint:1 ~n
           (fun ~worker:_ ~chunk:_ ~lo ~hi -> per_index ~lo ~hi))
    in
    if got <> reference n then
      Alcotest.failf "stress round %d: wrong merge for n=%d" round n
  done

let test_pool_small_n () =
  Util.Parallel.Pool.with_pool ~clamp:false ~domains:8 @@ fun pool ->
  (* Fewer items than workers: n singleton chunks, never empty ones. *)
  let got =
    Util.Parallel.Pool.map pool ~chunk_hint:1 ~n:3
      (fun ~worker:_ ~chunk ~lo ~hi -> (chunk, lo, hi))
  in
  check "three singleton chunks" 3 (List.length got);
  List.iteri
    (fun i (chunk, lo, hi) ->
      check "chunk id" i chunk;
      check "lo" i lo;
      check "hi" (i + 1) hi)
    got;
  check "n=0 maps to nothing" 0
    (List.length
       (Util.Parallel.Pool.map pool ~n:0 (fun ~worker:_ ~chunk:_ ~lo:_ ~hi:_ ->
            ())))

let test_chunk_count_contract () =
  Util.Parallel.Pool.with_pool ~clamp:false ~domains:4 @@ fun pool ->
  let size = Util.Parallel.Pool.size pool in
  List.iter
    (fun (chunk_hint, n) ->
      let c = Util.Parallel.Pool.chunk_count pool ~chunk_hint ~n in
      checkb
        (Printf.sprintf "chunk_count hint=%d n=%d in range" chunk_hint n)
        true
        (c >= min 1 n && c <= max 1 n && c <= size * 8);
      check "pure function of its inputs" c
        (Util.Parallel.Pool.chunk_count pool ~chunk_hint ~n))
    [ (1, 0); (1, 1); (1, 7); (1, 1000); (256, 1000); (256, 100000);
      (1024, 2048); (64, 64) ]

exception Boom of int

let test_pool_exception_recovery () =
  Util.Parallel.Pool.with_pool ~clamp:false ~domains:4 @@ fun pool ->
  (match
     Util.Parallel.Pool.map pool ~chunk_hint:1 ~n:16
       (fun ~worker:_ ~chunk ~lo:_ ~hi:_ ->
         if chunk = 5 then raise (Boom chunk) else chunk)
   with
  | _ -> Alcotest.fail "expected Boom to propagate"
  | exception Boom 5 -> ()
  | exception e -> raise e);
  (* The failed round must leave the crew serviceable. *)
  let got =
    List.concat
      (Util.Parallel.Pool.map pool ~chunk_hint:1 ~n:41
         (fun ~worker:_ ~chunk:_ ~lo ~hi -> per_index ~lo ~hi))
  in
  checkb "pool survives a failed round" true (got = reference 41)

let test_pool_shutdown_idempotent () =
  let pool = Util.Parallel.Pool.create ~clamp:false ~domains:3 () in
  let got =
    List.concat
      (Util.Parallel.Pool.map pool ~chunk_hint:1 ~n:10
         (fun ~worker:_ ~chunk:_ ~lo ~hi -> per_index ~lo ~hi))
  in
  checkb "works before shutdown" true (got = reference 10);
  Util.Parallel.Pool.shutdown pool;
  Util.Parallel.Pool.shutdown pool;
  match
    Util.Parallel.Pool.map pool ~n:4 (fun ~worker:_ ~chunk:_ ~lo:_ ~hi:_ -> 0)
  with
  | _ -> Alcotest.fail "map after shutdown must raise"
  | exception Invalid_argument _ -> ()

(* ---------------------------------------------------------- plumbing *)

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "reuse across rounds" `Quick test_pool_reuse;
          Alcotest.test_case "back-to-back stress" `Quick
            test_pool_back_to_back_stress;
          Alcotest.test_case "fewer items than workers" `Quick
            test_pool_small_n;
          Alcotest.test_case "chunk_count contract" `Quick
            test_chunk_count_contract;
          Alcotest.test_case "exception recovery" `Quick
            test_pool_exception_recovery;
          Alcotest.test_case "shutdown idempotent" `Quick
            test_pool_shutdown_idempotent;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_bounds_exact_partition; prop_pooled_matches_sequential ] );
    ]
