(* Unit and property tests for the util library. *)

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* ------------------------------------------------------------- Prng *)

let test_prng_determinism () =
  let a = Util.Prng.create ~seed:7L and b = Util.Prng.create ~seed:7L in
  for _ = 1 to 100 do
    Alcotest.(check int64)
      "same stream" (Util.Prng.next_int64 a) (Util.Prng.next_int64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Util.Prng.create ~seed:1L and b = Util.Prng.create ~seed:2L in
  checkb "different seeds diverge" true
    (Util.Prng.next_int64 a <> Util.Prng.next_int64 b)

let test_prng_int_bounds () =
  let rng = Util.Prng.create ~seed:3L in
  for _ = 1 to 1000 do
    let v = Util.Prng.int rng ~bound:17 in
    checkb "0 <= v < 17" true (v >= 0 && v < 17)
  done

let test_prng_int_invalid () =
  let rng = Util.Prng.create ~seed:3L in
  Alcotest.check_raises "bound 0" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Util.Prng.int rng ~bound:0))

let test_prng_range () =
  let rng = Util.Prng.create ~seed:4L in
  for _ = 1 to 500 do
    let v = Util.Prng.int_in_range rng ~lo:5 ~hi:9 in
    checkb "in [5,9]" true (v >= 5 && v <= 9)
  done

let test_prng_float_unit_interval () =
  let rng = Util.Prng.create ~seed:5L in
  for _ = 1 to 1000 do
    let v = Util.Prng.float rng in
    checkb "in [0,1)" true (v >= 0.0 && v < 1.0)
  done

let test_prng_choose () =
  let rng = Util.Prng.create ~seed:6L in
  let arr = [| 10; 20; 30 |] in
  for _ = 1 to 100 do
    checkb "member" true (Array.mem (Util.Prng.choose rng arr) arr)
  done

let test_prng_choose_empty () =
  let rng = Util.Prng.create ~seed:6L in
  Alcotest.check_raises "empty" (Invalid_argument "Prng.choose: empty array")
    (fun () -> ignore (Util.Prng.choose rng [||]))

let test_prng_shuffle_permutation () =
  let rng = Util.Prng.create ~seed:8L in
  let arr = Array.init 50 Fun.id in
  Util.Prng.shuffle_in_place rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted

let test_prng_distinct_ints () =
  let rng = Util.Prng.create ~seed:9L in
  for _ = 1 to 50 do
    let l = Util.Prng.sorted_distinct_ints rng ~count:6 ~lo:3 ~hi:20 in
    check "count" 6 (List.length l);
    check "distinct" 6 (List.length (List.sort_uniq compare l));
    checkb "sorted" true (l = List.sort compare l);
    List.iter (fun v -> checkb "range" true (v >= 3 && v <= 20)) l
  done

let test_prng_distinct_full_range () =
  let rng = Util.Prng.create ~seed:10L in
  let l = Util.Prng.sorted_distinct_ints rng ~count:5 ~lo:0 ~hi:4 in
  Alcotest.(check (list int)) "whole range" [ 0; 1; 2; 3; 4 ] l

let test_prng_copy_independent () =
  let a = Util.Prng.create ~seed:11L in
  ignore (Util.Prng.next_int64 a);
  let b = Util.Prng.copy a in
  Alcotest.(check int64) "same next" (Util.Prng.next_int64 a)
    (Util.Prng.next_int64 b)

(* --------------------------------------------------------- Int_math *)

let test_ceil_div () =
  check "7/2" 4 (Util.Int_math.ceil_div 7 2);
  check "8/2" 4 (Util.Int_math.ceil_div 8 2);
  check "0/5" 0 (Util.Int_math.ceil_div 0 5);
  check "1/5" 1 (Util.Int_math.ceil_div 1 5)

let test_ceil_div_invalid () =
  Alcotest.check_raises "zero divisor"
    (Invalid_argument "Int_math.ceil_div: non-positive divisor") (fun () ->
      ignore (Util.Int_math.ceil_div 4 0))

let test_round_up_to () =
  check "7 to 4" 8 (Util.Int_math.round_up_to ~multiple:4 7);
  check "8 to 4" 8 (Util.Int_math.round_up_to ~multiple:4 8);
  check "0 to 4" 0 (Util.Int_math.round_up_to ~multiple:4 0)

let test_pow () =
  check "2^10" 1024 (Util.Int_math.pow 2 10);
  check "3^0" 1 (Util.Int_math.pow 3 0);
  check "7^3" 343 (Util.Int_math.pow 7 3)

let test_isqrt () =
  check "isqrt 0" 0 (Util.Int_math.isqrt 0);
  check "isqrt 15" 3 (Util.Int_math.isqrt 15);
  check "isqrt 16" 4 (Util.Int_math.isqrt 16);
  check "isqrt 17" 4 (Util.Int_math.isqrt 17)

let test_divisors () =
  Alcotest.(check (list int)) "12" [ 1; 2; 3; 4; 6; 12 ] (Util.Int_math.divisors 12);
  Alcotest.(check (list int)) "1" [ 1 ] (Util.Int_math.divisors 1);
  Alcotest.(check (list int)) "49" [ 1; 7; 49 ] (Util.Int_math.divisors 49)

let test_closest_divisor () =
  check "closest to 5 in 12" 4 (Util.Int_math.closest_divisor 12 ~target:5);
  check "closest to 6 in 12" 6 (Util.Int_math.closest_divisor 12 ~target:6);
  check "tie resolves down" 1 (Util.Int_math.closest_divisor 4 ~target:0)

let test_clamp () =
  check "below" 2 (Util.Int_math.clamp ~lo:2 ~hi:5 0);
  check "above" 5 (Util.Int_math.clamp ~lo:2 ~hi:5 9);
  check "inside" 3 (Util.Int_math.clamp ~lo:2 ~hi:5 3)

let test_binomial () =
  check "C(5,2)" 10 (Util.Int_math.binomial 5 2);
  check "C(5,0)" 1 (Util.Int_math.binomial 5 0);
  check "C(5,5)" 1 (Util.Int_math.binomial 5 5);
  check "C(5,6)" 0 (Util.Int_math.binomial 5 6);
  check "C(52,5)" 2598960 (Util.Int_math.binomial 52 5)

let test_compositions () =
  check "10 into 3" 36 (Util.Int_math.compositions 10 3);
  check "n into 1" 1 (Util.Int_math.compositions 7 1);
  check "n into n" 1 (Util.Int_math.compositions 7 7)

(* ------------------------------------------------------------ Stats *)

let checkf = Alcotest.(check (float 1e-9))

let test_stats_basic () =
  checkf "mean" 2.0 (Util.Stats.mean [ 1.0; 2.0; 3.0 ]);
  checkf "min" 1.0 (Util.Stats.minimum [ 3.0; 1.0; 2.0 ]);
  checkf "max" 3.0 (Util.Stats.maximum [ 3.0; 1.0; 2.0 ]);
  checkf "geomean" 2.0 (Util.Stats.geomean [ 1.0; 2.0; 4.0 ]);
  checkf "stddev const" 0.0 (Util.Stats.stddev [ 5.0; 5.0; 5.0 ])

let test_stats_percentile () =
  let l = [ 1.0; 2.0; 3.0; 4.0 ] in
  checkf "p0" 1.0 (Util.Stats.percentile l ~p:0.0);
  checkf "p50" 2.0 (Util.Stats.percentile l ~p:50.0);
  checkf "p100" 4.0 (Util.Stats.percentile l ~p:100.0)

let test_stats_arg () =
  check "argmin" 3 (Util.Stats.argmin float_of_int [ 5; 3; 4 ]);
  check "argmax" 5 (Util.Stats.argmax float_of_int [ 5; 3; 4 ])

let test_stats_empty () =
  Alcotest.check_raises "mean []" (Invalid_argument "Stats.mean: empty list")
    (fun () -> ignore (Util.Stats.mean []))

let test_stats_quantile () =
  let l = [ 4.0; 1.0; 3.0; 2.0 ] in
  checkf "q0 = min" 1.0 (Util.Stats.quantile l ~q:0.0);
  checkf "q1 = max" 4.0 (Util.Stats.quantile l ~q:1.0);
  checkf "median interpolates" 2.5 (Util.Stats.quantile l ~q:0.5);
  checkf "q0.25" 1.75 (Util.Stats.quantile l ~q:0.25);
  checkf "singleton" 7.0 (Util.Stats.quantile [ 7.0 ] ~q:0.9)

let test_stats_quantile_invalid () =
  Alcotest.check_raises "empty"
    (Invalid_argument "Stats.quantile: empty list") (fun () ->
      ignore (Util.Stats.quantile [] ~q:0.5));
  Alcotest.check_raises "q > 1"
    (Invalid_argument "Stats.quantile: q out of range") (fun () ->
      ignore (Util.Stats.quantile [ 1.0 ] ~q:1.5));
  Alcotest.check_raises "q < 0"
    (Invalid_argument "Stats.quantile: q out of range") (fun () ->
      ignore (Util.Stats.quantile [ 1.0 ] ~q:(-0.1)))

(* -------------------------------------------------------- Partition *)

let brute_force_min_max weights parts =
  (* Enumerate all compositions, return the minimal max part sum. *)
  let n = Array.length weights in
  let best = ref max_int in
  let rec go start parts_left current_max =
    if parts_left = 1 then begin
      let s = Util.Partition.range_weight ~weights ~first:start ~last:(n - 1) in
      best := min !best (max current_max s)
    end
    else
      for last = start to n - parts_left do
        let s = Util.Partition.range_weight ~weights ~first:start ~last in
        go (last + 1) (parts_left - 1) (max current_max s)
      done
  in
  go 0 parts 0;
  !best

let test_partition_structure () =
  let weights = [| 5; 1; 4; 2; 8; 3 |] in
  let ranges = Util.Partition.min_max_partition ~weights ~parts:3 in
  check "3 parts" 3 (List.length ranges);
  let expected_start = ref 0 in
  List.iter
    (fun (first, last) ->
      check "contiguous" !expected_start first;
      checkb "non-empty" true (last >= first);
      expected_start := last + 1)
    ranges;
  check "covers all" 6 !expected_start

let test_partition_optimality () =
  let cases =
    [ ([| 5; 1; 4; 2; 8; 3 |], 3); ([| 1; 1; 1; 1 |], 2);
      ([| 9; 1; 1; 1; 9 |], 3); ([| 2; 4; 6; 8; 10; 1; 3 |], 4) ]
  in
  List.iter
    (fun (weights, parts) ->
      let ranges = Util.Partition.min_max_partition ~weights ~parts in
      let achieved =
        List.fold_left
          (fun acc (first, last) ->
            max acc (Util.Partition.range_weight ~weights ~first ~last))
          0 ranges
      in
      check "optimal max part" (brute_force_min_max weights parts) achieved)
    cases

let test_partition_singletons () =
  let weights = [| 3; 1; 4 |] in
  Alcotest.(check (list (pair int int)))
    "n parts = singletons"
    [ (0, 0); (1, 1); (2, 2) ]
    (Util.Partition.min_max_partition ~weights ~parts:3)

let test_partition_invalid () =
  Alcotest.check_raises "too many parts"
    (Invalid_argument "Partition.min_max_partition: 4 parts for 3 elements")
    (fun () ->
      ignore (Util.Partition.min_max_partition ~weights:[| 1; 2; 3 |] ~parts:4))

(* ------------------------------------------------------------ Table *)

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

let test_table_render () =
  let t =
    Util.Table.create ~title:"T"
      ~columns:[ ("a", Util.Table.Left); ("b", Util.Table.Right) ]
      ()
  in
  Util.Table.add_row t [ "x"; "1" ];
  Util.Table.add_row t [ "yy"; "22" ];
  let s = Util.Table.render t in
  checkb "has title" true (String.length s > 0 && s.[0] = 'T');
  checkb "mentions yy" true (contains s "yy");
  checkb "mentions header" true (contains s "a")

let test_table_markdown () =
  let t =
    Util.Table.create ~title:"T"
      ~columns:[ ("a", Util.Table.Left); ("b", Util.Table.Right) ]
      ()
  in
  Util.Table.add_row t [ "x|y"; "1" ];
  Util.Table.add_separator t;
  Util.Table.add_row t [ "z"; "2" ];
  let md = Util.Table.render_markdown t in
  checkb "title heading" true (contains md "### T");
  checkb "alignment row" true (contains md "| :--- | ---: |");
  checkb "escaped pipe" true (contains md "x\\|y");
  checkb "separator dropped" false (contains md "---|---|---")

let test_table_cell_mismatch () =
  let t = Util.Table.create ~columns:[ ("a", Util.Table.Left) ] () in
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Table.add_row: cell count mismatch") (fun () ->
      Util.Table.add_row t [ "x"; "y" ])

(* ------------------------------------------------------------ Units *)

let test_units () =
  check "1 MiB" 1048576 Util.Units.mib;
  checkf "mib_of_bytes" 2.0 (Util.Units.mib_of_bytes (2 * 1048576));
  check "bytes_of_mib" 1048576 (Util.Units.bytes_of_mib 1.0);
  Alcotest.(check string) "pp_bytes" "2.00 MiB"
    (Format.asprintf "%a" Util.Units.pp_bytes (2 * 1048576));
  Alcotest.(check string) "pp_rate" "19.2 GB/s"
    (Format.asprintf "%a" Util.Units.pp_rate 19.2e9);
  Alcotest.(check string) "pp_seconds ms" "1.500 ms"
    (Format.asprintf "%a" Util.Units.pp_seconds 0.0015)

(* ------------------------------------------------------- properties *)

let prop_ceil_div =
  QCheck2.Test.make ~name:"ceil_div bounds"
    QCheck2.Gen.(pair (int_bound 10000) (int_range 1 100))
    (fun (a, b) ->
      let q = Util.Int_math.ceil_div a b in
      (q * b >= a) && ((q - 1) * b < a || q = 0))

let prop_divisors =
  QCheck2.Test.make ~name:"divisors divide and include 1 and n"
    QCheck2.Gen.(int_range 1 5000)
    (fun n ->
      let ds = Util.Int_math.divisors n in
      List.for_all (fun d -> n mod d = 0) ds
      && List.mem 1 ds && List.mem n ds
      && ds = List.sort compare ds)

let prop_partition_cover =
  QCheck2.Test.make ~name:"partition covers contiguously"
    QCheck2.Gen.(
      pair (array_size (int_range 2 12) (int_range 0 50)) (int_range 1 5))
    (fun (weights, parts) ->
      QCheck2.assume (parts <= Array.length weights);
      let ranges = Util.Partition.min_max_partition ~weights ~parts in
      let flat =
        List.concat_map
          (fun (a, b) -> List.init (b - a + 1) (fun i -> a + i))
          ranges
      in
      flat = List.init (Array.length weights) Fun.id)

let prop_prng_distinct =
  QCheck2.Test.make ~name:"sorted_distinct_ints honest"
    QCheck2.Gen.(pair (int_range 0 30) (int_range 0 1000))
    (fun (count, seed) ->
      let rng = Util.Prng.create ~seed:(Int64.of_int seed) in
      let l = Util.Prng.sorted_distinct_ints rng ~count ~lo:0 ~hi:40 in
      List.length l = count
      && List.length (List.sort_uniq compare l) = count
      && List.for_all (fun v -> v >= 0 && v <= 40) l)

(* Independent quantile reference on the sorted array: value at
   fractional rank q(n - 1), floor/ceil indexing — written differently
   from the library's clamped-interval form on purpose. *)
let reference_quantile l q =
  let a = Array.of_list l in
  Array.sort compare a;
  let h = q *. float_of_int (Array.length a - 1) in
  let lo = int_of_float (Float.floor h) in
  let hi = int_of_float (Float.ceil h) in
  a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let quantile_input =
  QCheck2.Gen.(
    pair
      (list_size (int_range 1 40) (float_bound_inclusive 1000.0))
      (float_bound_inclusive 1.0))

let prop_quantile_reference =
  QCheck2.Test.make ~name:"quantile matches sorted-array reference"
    quantile_input
    (fun (l, q) ->
      let v = Util.Stats.quantile l ~q in
      let r = reference_quantile l q in
      Float.abs (v -. r) <= 1e-9 *. Float.max 1.0 (Float.abs r))

let prop_quantile_bounded_monotone =
  QCheck2.Test.make ~name:"quantile bounded, monotone, order-insensitive"
    QCheck2.Gen.(pair quantile_input (float_bound_inclusive 1.0))
    (fun ((l, q1), q2) ->
      let lo = Float.min q1 q2 and hi = Float.max q1 q2 in
      let vlo = Util.Stats.quantile l ~q:lo in
      let vhi = Util.Stats.quantile l ~q:hi in
      vlo >= Util.Stats.minimum l
      && vhi <= Util.Stats.maximum l
      && vlo <= vhi
      && Util.Stats.quantile (List.rev l) ~q:lo = vlo)

(* The serve protocol rides on Util.Json, and the daemon's bit-exactness
   contract rides on its float round-trip: print/parse must be the
   identity on every finite double and on arbitrary (escaped) strings. *)
let gen_json =
  let open QCheck2.Gen in
  let leaf =
    oneof
      [
        return Util.Json.Null;
        map (fun b -> Util.Json.Bool b) bool;
        (* Finite doubles only: JSON has no NaN/inf (they print as null
           by design, breaking identity on purpose). *)
        map (fun f -> Util.Json.Num f)
          (oneof [ float; map float_of_int int; return 0.0; return (-0.0) ]);
        map (fun s -> Util.Json.Str s) string_printable;
        map (fun s -> Util.Json.Str s)
          (string_size ~gen:(map Char.chr (int_range 1 255)) (int_range 0 20));
      ]
  in
  sized @@ fix (fun self n ->
      if n <= 0 then leaf
      else
        oneof
          [
            leaf;
            map (fun vs -> Util.Json.Arr vs)
              (list_size (int_range 0 4) (self (n / 2)));
            map (fun kvs -> Util.Json.Obj kvs)
              (list_size (int_range 0 4)
                 (pair string_printable (self (n / 2))));
          ])

let rec json_has_nonfinite = function
  | Util.Json.Num f -> Float.is_nan f || Float.abs f = Float.infinity
  | Util.Json.Arr vs -> List.exists json_has_nonfinite vs
  | Util.Json.Obj kvs -> List.exists (fun (_, v) -> json_has_nonfinite v) kvs
  | _ -> false

let prop_json_roundtrip =
  QCheck2.Test.make ~name:"json parse (to_string v) = v" ~count:500 gen_json
    (fun v ->
      QCheck2.assume (not (json_has_nonfinite v));
      match Util.Json.parse (Util.Json.to_string v) with
      | Ok v' -> v' = v
      | Error _ -> false)

let prop_json_pretty_agrees =
  QCheck2.Test.make ~name:"json pretty printer parses to the same value"
    ~count:200 gen_json (fun v ->
      QCheck2.assume (not (json_has_nonfinite v));
      Util.Json.parse (Util.Json.to_string_pretty v) = Ok v)

let prop_json_trailing_garbage =
  QCheck2.Test.make ~name:"json rejects trailing garbage" ~count:200 gen_json
    (fun v ->
      match Util.Json.parse (Util.Json.to_string v ^ " x") with
      | Error _ -> true
      | Ok _ -> false)

let prop_json_depth_cap =
  QCheck2.Test.make ~name:"json depth cap rejects deep nesting"
    QCheck2.Gen.(int_range 70 200)
    (fun depth ->
      let s = String.make depth '[' ^ String.make depth ']' in
      match Util.Json.parse s with Error _ -> true | Ok _ -> false)

(* ----------------------------------------------------------- Cache *)

let test_cache_basic () =
  let c = Util.Cache.create ~shards:1 ~capacity:3 () in
  check "empty" 0 (Util.Cache.length c);
  check "capacity" 3 (Util.Cache.capacity c);
  check "shards" 1 (Util.Cache.shards c);
  checkb "miss" true (Util.Cache.find c "a" = None);
  check "no eviction" 0 (Util.Cache.add c "a" 1);
  checkb "hit" true (Util.Cache.find c "a" = Some 1);
  checkb "mem" true (Util.Cache.mem c "a");
  checkb "mem miss" false (Util.Cache.mem c "zz");
  check "replace keeps size" 0 (Util.Cache.add c "a" 2);
  checkb "replaced" true (Util.Cache.find c "a" = Some 2);
  check "one entry" 1 (Util.Cache.length c)

(* Single shard = exact LRU: the least recently touched key is the one
   evicted, and a find refreshes recency. *)
let test_cache_lru_order () =
  let c = Util.Cache.create ~shards:1 ~capacity:3 () in
  ignore (Util.Cache.add c "a" 1);
  ignore (Util.Cache.add c "b" 2);
  ignore (Util.Cache.add c "c" 3);
  ignore (Util.Cache.find c "a");
  (* recency now a, c, b *)
  check "evicts one" 1 (Util.Cache.add c "d" 4);
  checkb "b evicted" false (Util.Cache.mem c "b");
  checkb "a kept" true (Util.Cache.mem c "a");
  checkb "c kept" true (Util.Cache.mem c "c");
  checkb "d present" true (Util.Cache.mem c "d")

let test_cache_counters () =
  let c = Util.Cache.create ~shards:1 ~capacity:2 () in
  ignore (Util.Cache.find c "a");
  ignore (Util.Cache.add c "a" 1);
  ignore (Util.Cache.find c "a");
  ignore (Util.Cache.add c "b" 2);
  ignore (Util.Cache.add c "c" 3);
  let s = Util.Cache.stats c in
  check "hits" 1 s.Util.Cache.hits;
  check "misses" 1 s.Util.Cache.misses;
  check "evictions" 1 s.Util.Cache.evictions;
  check "entries" 2 s.Util.Cache.entries;
  Util.Cache.clear c;
  check "cleared" 0 (Util.Cache.length c);
  let s' = Util.Cache.stats c in
  check "counters survive clear" 1 s'.Util.Cache.evictions;
  (* shard_stats totals agree with stats *)
  let per = Util.Cache.shard_stats c in
  check "shard stats rows" (Util.Cache.shards c) (Array.length per);
  check "shard hits sum" s'.Util.Cache.hits
    (Array.fold_left (fun acc x -> acc + x.Util.Cache.hits) 0 per)

let test_cache_invalid () =
  Alcotest.check_raises "capacity 0"
    (Invalid_argument "Cache.create: capacity must be >= 1") (fun () ->
      ignore (Util.Cache.create ~capacity:0 ()))

let test_cache_shard_rounding () =
  (* shards rounds down to a power of two and clamps to capacity *)
  check "clamped" 2 (Util.Cache.shards (Util.Cache.create ~shards:16 ~capacity:2 ()));
  check "rounded" 4 (Util.Cache.shards (Util.Cache.create ~shards:7 ~capacity:100 ()));
  check "capacity kept" 100
    (Util.Cache.capacity (Util.Cache.create ~shards:7 ~capacity:100 ()))

(* Exact-LRU property: a single-shard cache behaves like a reference
   model (association list in recency order) over random op streams. *)
let prop_cache_matches_reference =
  let open QCheck2 in
  let gen_ops =
    Gen.(list_size (int_range 0 200)
           (pair (int_range 0 1) (int_range 0 12)))
  in
  Test.make ~name:"cache single shard = reference LRU" ~count:200 gen_ops
    (fun ops ->
      let cap = 4 in
      let c = Util.Cache.create ~shards:1 ~capacity:cap () in
      (* model: (key, value) list, head = most recent *)
      let model = ref [] in
      List.for_all
        (fun (op, k) ->
          let key = string_of_int k in
          if op = 0 then begin
            let expected = List.assoc_opt key !model in
            (match expected with
            | Some _ ->
              model :=
                (key, Option.get expected)
                :: List.remove_assoc key !model
            | None -> ());
            Util.Cache.find c key = expected
          end
          else begin
            let evicted = Util.Cache.add c key k in
            model := (key, k) :: List.remove_assoc key !model;
            let over = List.length !model > cap in
            if over then
              model := List.filteri (fun i _ -> i < cap) !model;
            evicted = (if over then 1 else 0)
            && Util.Cache.length c = List.length !model
          end)
        ops)

(* Domains hammer: concurrent adds and finds never corrupt the
   structure — the capacity bound holds, every find returns the value
   that was stored for that key, and counters total coherently. *)
let test_cache_domains () =
  let cap = 64 in
  let c = Util.Cache.create ~capacity:cap () in
  let per_domain = 5_000 in
  let worker seed () =
    let prng = Util.Prng.create ~seed:(Int64.of_int seed) in
    for _ = 1 to per_domain do
      let k = Util.Prng.int prng ~bound:200 in
      let key = string_of_int k in
      if Util.Prng.int prng ~bound:2 = 0 then ignore (Util.Cache.add c key k)
      else
        match Util.Cache.find c key with
        | None -> ()
        | Some v -> if v <> k then failwith "cache returned wrong value"
    done
  in
  let domains = List.init 4 (fun i -> Domain.spawn (worker (i + 1))) in
  List.iter Domain.join domains;
  checkb "within capacity" true (Util.Cache.length c <= cap);
  let s = Util.Cache.stats c in
  checkb "entries consistent" true (s.Util.Cache.entries = Util.Cache.length c);
  checkb "counted finds" true (s.Util.Cache.hits + s.Util.Cache.misses > 0)

let properties =
  List.map QCheck_alcotest.to_alcotest
    [ prop_ceil_div; prop_divisors; prop_partition_cover; prop_prng_distinct;
      prop_quantile_reference; prop_quantile_bounded_monotone;
      prop_json_roundtrip; prop_json_pretty_agrees; prop_json_trailing_garbage;
      prop_json_depth_cap; prop_cache_matches_reference ]

let () =
  Alcotest.run "util"
    [
      ( "prng",
        [
          Alcotest.test_case "determinism" `Quick test_prng_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
          Alcotest.test_case "int bounds" `Quick test_prng_int_bounds;
          Alcotest.test_case "int invalid" `Quick test_prng_int_invalid;
          Alcotest.test_case "int_in_range" `Quick test_prng_range;
          Alcotest.test_case "float unit interval" `Quick test_prng_float_unit_interval;
          Alcotest.test_case "choose" `Quick test_prng_choose;
          Alcotest.test_case "choose empty" `Quick test_prng_choose_empty;
          Alcotest.test_case "shuffle permutation" `Quick test_prng_shuffle_permutation;
          Alcotest.test_case "distinct ints" `Quick test_prng_distinct_ints;
          Alcotest.test_case "distinct full range" `Quick test_prng_distinct_full_range;
          Alcotest.test_case "copy independent" `Quick test_prng_copy_independent;
        ] );
      ( "int_math",
        [
          Alcotest.test_case "ceil_div" `Quick test_ceil_div;
          Alcotest.test_case "ceil_div invalid" `Quick test_ceil_div_invalid;
          Alcotest.test_case "round_up_to" `Quick test_round_up_to;
          Alcotest.test_case "pow" `Quick test_pow;
          Alcotest.test_case "isqrt" `Quick test_isqrt;
          Alcotest.test_case "divisors" `Quick test_divisors;
          Alcotest.test_case "closest_divisor" `Quick test_closest_divisor;
          Alcotest.test_case "clamp" `Quick test_clamp;
          Alcotest.test_case "binomial" `Quick test_binomial;
          Alcotest.test_case "compositions" `Quick test_compositions;
        ] );
      ( "stats",
        [
          Alcotest.test_case "basic" `Quick test_stats_basic;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "argmin/argmax" `Quick test_stats_arg;
          Alcotest.test_case "empty raises" `Quick test_stats_empty;
          Alcotest.test_case "quantile" `Quick test_stats_quantile;
          Alcotest.test_case "quantile invalid" `Quick
            test_stats_quantile_invalid;
        ] );
      ( "partition",
        [
          Alcotest.test_case "structure" `Quick test_partition_structure;
          Alcotest.test_case "optimality" `Quick test_partition_optimality;
          Alcotest.test_case "singletons" `Quick test_partition_singletons;
          Alcotest.test_case "invalid" `Quick test_partition_invalid;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "markdown" `Quick test_table_markdown;
          Alcotest.test_case "cell mismatch" `Quick test_table_cell_mismatch;
        ] );
      ("units", [ Alcotest.test_case "conversions" `Quick test_units ]);
      ( "cache",
        [
          Alcotest.test_case "basic" `Quick test_cache_basic;
          Alcotest.test_case "lru order" `Quick test_cache_lru_order;
          Alcotest.test_case "counters" `Quick test_cache_counters;
          Alcotest.test_case "invalid capacity" `Quick test_cache_invalid;
          Alcotest.test_case "shard rounding" `Quick test_cache_shard_rounding;
          Alcotest.test_case "domains hammer" `Quick test_cache_domains;
        ] );
      ("properties", properties);
    ]
