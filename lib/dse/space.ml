(* Binomial in floats: the design-space sizes exceed integer range. *)
let float_binomial n k =
  if k < 0 || k > n then 0.0
  else begin
    let k = min k (n - k) in
    let acc = ref 1.0 in
    for i = 1 to k do
      acc := !acc *. float_of_int (n - k + i) /. float_of_int i
    done;
    !acc
  end

(* Binomial in saturating integers: exact while it fits, [max_int]
   beyond.  Callers only compare these counts against a spec cap, so
   saturation is harmless there. *)
let binomial_capped n k =
  if k < 0 || k > n then 0
  else begin
    let k = min k (n - k) in
    let acc = ref 1 in
    (try
       for i = 1 to k do
         let m = n - k + i in
         if !acc > max_int / m then begin
           acc := max_int;
           raise Exit
         end;
         (* C(n-k+i, i) is an integer, so the running product stays
            divisible by i. *)
         acc := !acc * m / i
       done
     with Exit -> ());
    !acc
  end

(* Ways to split layers [first ..] into [segments] non-empty
   single-CE segments: C(num_layers - first - 1, segments - 1). *)
let completions ~num_layers ~first ~segments =
  if segments < 1 || first < 0 || first >= num_layers then 0
  else binomial_capped (num_layers - first - 1) (segments - 1)

let designs_for_ce_count ~num_layers ~ces =
  let total = ref 0.0 in
  for f = 1 to ces - 1 do
    let s = ces - f in
    let tail_layers = num_layers - f in
    if tail_layers >= s then
      total := !total +. float_binomial (tail_layers - 1) (s - 1)
  done;
  !total

let total_designs ~num_layers ~ce_counts =
  List.fold_left
    (fun acc ces -> acc +. designs_for_ce_count ~num_layers ~ces)
    0.0 ce_counts

let sat_add a b = if a > max_int - b then max_int else a + b

let designs_capped ~num_layers ~ces =
  let total = ref 0 in
  for f = 1 to min (ces - 1) (num_layers - 1) do
    let s = ces - f in
    if num_layers - f >= s then
      total := sat_add !total (completions ~num_layers ~first:f ~segments:s)
  done;
  !total

(* ------------------------------------------------- flat encoding *)

module Flat = struct
  (* One spec per [width]-slot row: slot 0 is the pipelined depth [f],
     slots 1 .. width - 1 the tail boundaries in ascending order,
     0-padded.  Zero is a safe end sentinel — a real boundary is at
     least [f + 1 >= 2].  A Bigarray holds unboxed ints outside the
     OCaml heap: enumerating into it allocates nothing per candidate,
     the GC never scans it, and domains share it without write
     conflicts (disjoint rows). *)

  type buf = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

  let width ~ces =
    if ces < 2 then invalid_arg "Space.Flat.width: ces < 2";
    ces - 1

  let create ~width n =
    if width < 1 then invalid_arg "Space.Flat.create: width < 1";
    if n < 0 then invalid_arg "Space.Flat.create: negative count";
    let buf =
      Bigarray.Array1.create Bigarray.int Bigarray.c_layout (n * width)
    in
    Bigarray.Array1.fill buf 0;
    buf

  let count buf ~width = Bigarray.Array1.dim buf / width
  let pipelined buf ~width i = buf.{i * width}

  let boundary buf ~width i ~k = buf.{(i * width) + 1 + k}

  let segments buf ~width i =
    let off = i * width in
    let s = ref 1 in
    (try
       for k = 1 to width - 1 do
         if buf.{off + k} = 0 then raise Exit;
         incr s
       done
     with Exit -> ());
    !s

  let encode buf ~width ~at spec =
    let f = spec.Arch.Custom.pipelined_layers in
    let bs = spec.Arch.Custom.tail_boundaries in
    if f < 1 then invalid_arg "Space.Flat.encode: pipelined_layers < 1";
    if 1 + List.length bs > width then
      invalid_arg "Space.Flat.encode: spec too wide for row";
    let off = at * width in
    for k = 0 to width - 1 do
      buf.{off + k} <- 0
    done;
    buf.{off} <- f;
    List.iteri
      (fun j b ->
        if b < 2 then invalid_arg "Space.Flat.encode: boundary < 2";
        buf.{off + 1 + j} <- b)
      bs

  let decode buf ~width i =
    let off = i * width in
    let rec tail k acc =
      if k >= width then List.rev acc
      else
        let b = buf.{off + k} in
        if b = 0 then List.rev acc else tail (k + 1) (b :: acc)
    in
    { Arch.Custom.pipelined_layers = buf.{off}; tail_boundaries = tail 1 [] }

  let enumerate ~num_layers ~ces ~max_specs =
    if ces < 2 then invalid_arg "Space.Flat.enumerate: ces < 2";
    let w = width ~ces in
    let total = min max_specs (designs_capped ~num_layers ~ces) in
    let total = max 0 total in
    let buf = create ~width:w total in
    let filled = ref 0 in
    (* Same recursion as [Enumerate.enumerate_specs], writing rows
       directly: [cur] is the row under construction, [depth] its next
       free slot. *)
    let cur = Array.make w 0 in
    let emit depth =
      if !filled < total then begin
        let off = !filled * w in
        for k = 0 to depth - 1 do
          buf.{off + k} <- cur.(k)
        done;
        incr filled
      end
    in
    let rec boundaries ~from ~remaining ~depth =
      if !filled >= total then ()
      else if remaining = 0 then emit depth
      else
        for b = from to num_layers - remaining do
          cur.(depth) <- b;
          boundaries ~from:(b + 1) ~remaining:(remaining - 1)
            ~depth:(depth + 1)
        done
    in
    for f = 1 to min (ces - 1) (num_layers - 1) do
      let s = ces - f in
      if num_layers - f >= s then begin
        cur.(0) <- f;
        boundaries ~from:(f + 1) ~remaining:(s - 1) ~depth:1
      end
    done;
    buf
end

let random_spec rng ~num_layers ~ce_counts =
  if ce_counts = [] then invalid_arg "Space.random_spec: no CE counts";
  let candidates =
    List.filter
      (fun c -> c >= 2 && designs_for_ce_count ~num_layers ~ces:c > 0.0)
      ce_counts
  in
  if candidates = [] then
    invalid_arg "Space.random_spec: no feasible CE count";
  let ces = Util.Prng.choose rng (Array.of_list candidates) in
  (* Draw the pipelined-block depth, then the tail split. *)
  let rec draw_f () =
    let f = Util.Prng.int_in_range rng ~lo:1 ~hi:(ces - 1) in
    let s = ces - f in
    if num_layers - f >= s then (f, s) else draw_f ()
  in
  let f, s = draw_f () in
  let tail_boundaries =
    if s = 1 then []
    else
      Util.Prng.sorted_distinct_ints rng ~count:(s - 1) ~lo:(f + 1)
        ~hi:(num_layers - 1)
  in
  { Arch.Custom.pipelined_layers = f; tail_boundaries }
