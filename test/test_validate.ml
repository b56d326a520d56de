(* Tests for the differential validation subsystem: exact ideal-config
   agreement, case serialisation, corpus replay, counterexample
   shrinking and the parallel sweep driver. *)

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* Under [dune runtest] the cwd is the test directory; under a bare
   [dune exec] from the repo root it is not. *)
let corpus_path =
  if Sys.file_exists "corpus/validate.corpus" then "corpus/validate.corpus"
  else "test/corpus/validate.corpus"

(* ---------------------------------------------------- ideal exactness *)

let test_ideal_exact_zoo () =
  (* Acceptance bar of the subsystem: under the ideal simulator
     configuration, latency and off-chip access counts agree with the
     analytical model on Segmented, SegmentedRR and Hybrid for every
     network in the zoo. *)
  List.iter
    (fun m ->
      List.iter
        (fun arch ->
          let case = Validate.Case.v m Platform.Board.zcu102 arch in
          let ctx = Validate.Invariant.context case in
          match Validate.Invariant.ideal_exact.Validate.Invariant.check ctx with
          | Validate.Invariant.Pass -> ()
          | Validate.Invariant.Skip r ->
            Alcotest.failf "%s %s: unexpected skip: %s" m.Cnn.Model.name
              (Validate.Case.arch_to_string arch)
              r
          | Validate.Invariant.Fail msg ->
            Alcotest.failf "%s %s: %s" m.Cnn.Model.name
              (Validate.Case.arch_to_string arch)
              msg)
        [
          Validate.Case.Segmented 4;
          Validate.Case.Segmented_rr 4;
          Validate.Case.Hybrid 4;
        ])
    (Cnn.Model_zoo.extended ())

(* ------------------------------------------------- case serialisation *)

let test_case_round_trip_generated () =
  let rng = Util.Prng.create ~seed:5L in
  for i = 0 to 29 do
    let c = Validate.Gen.case rng ~index:i in
    match Validate.Case.of_string (Validate.Case.to_string c) with
    | Error e -> Alcotest.failf "case %d: %s" i e
    | Ok c' ->
      Alcotest.(check string) "label" c.Validate.Case.label c'.Validate.Case.label;
      checkb "arch" true (c.Validate.Case.arch = c'.Validate.Case.arch);
      checkb "board" true (c.Validate.Case.board = c'.Validate.Case.board);
      (* The replayed case must evaluate to bit-identical metrics. *)
      let m c =
        (Mccm.Evaluate.evaluate c.Validate.Case.model c.Validate.Case.board
           (Validate.Case.materialize c))
          .Mccm.Evaluate.metrics
      in
      checkb "identical metrics" true (m c = m c')
  done

let test_case_parse_errors () =
  List.iter
    (fun (label, text) ->
      match Validate.Case.of_string text with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s: expected a parse error" label)
    [
      ("no case header", "board ZC706\n");
      ("unknown board", "case x\nboard NoSuchBoard\narch segmented 2\n");
      ( "bad arch",
        "case x\nboard ZC706\narch frobnicate 2\nmodel\ncnn A A\ninput \
         8x8x8\npw 8\npw 8\nendmodel\nendcase\n" );
    ]

(* --------------------------------------------------------- the corpus *)

let test_corpus_replay () =
  match Validate.Corpus.load corpus_path with
  | Error e -> Alcotest.failf "corpus unreadable: %s" e
  | Ok cases ->
    checkb "has sentinel cases" true (List.length cases >= 3);
    List.iter
      (fun c ->
        let v =
          Validate.Oracle.check ~suite:(Validate.Invariant.default_suite ()) c
        in
        if not (Validate.Oracle.ok v) then
          Alcotest.failf "corpus case %s regressed: %s" c.Validate.Case.label
            (Format.asprintf "%a" Validate.Oracle.pp v))
      cases

let test_corpus_cached_bit_identical () =
  (* Every corpus case must evaluate to [Stdlib.(=)]-identical metrics
     through a memoized session (twice, so the second request is served
     by the segment and plan tables), an unmemoized session, and the raw
     evaluator: the caches are semantically invisible on the pinned
     regression set too. *)
  match Validate.Corpus.load corpus_path with
  | Error e -> Alcotest.failf "corpus unreadable: %s" e
  | Ok cases ->
    List.iter
      (fun c ->
        let model = c.Validate.Case.model and board = c.Validate.Case.board in
        let archi = Validate.Case.materialize c in
        let cached = Mccm.Eval_session.create model board in
        let uncached = Mccm.Eval_session.create ~memoize:false model board in
        let reference = Mccm.Evaluate.metrics model board archi in
        List.iteri
          (fun i m ->
            if m <> reference then
              Alcotest.failf "case %s: cached path %d diverges"
                c.Validate.Case.label i)
          [
            Mccm.Eval_session.metrics cached archi;
            Mccm.Eval_session.metrics cached archi;
            Mccm.Eval_session.metrics uncached archi;
          ])
      cases

let test_corpus_round_trip () =
  match Validate.Corpus.load corpus_path with
  | Error e -> Alcotest.failf "corpus unreadable: %s" e
  | Ok cases -> (
    let text = Validate.Corpus.to_string cases in
    match Validate.Corpus.of_string text with
    | Error e -> Alcotest.failf "re-parse: %s" e
    | Ok cases' -> check "same cases" (List.length cases) (List.length cases'))

(* ----------------------------------------------------------- shrinking *)

let test_shrinker_minimizes () =
  (* A synthetic invariant that rejects any model with more than four
     layers: the shrinker must walk a large generated case down to at
     most six layers (truncation floors at 2, CE clamps can hold it
     above 4) while the same invariant keeps failing. *)
  let too_big =
    {
      Validate.Invariant.name = "too-big";
      check =
        (fun ctx ->
          let n =
            Cnn.Model.num_layers
              ctx.Validate.Invariant.case.Validate.Case.model
          in
          if n > 4 then Validate.Invariant.Fail (Printf.sprintf "%d layers" n)
          else Validate.Invariant.Pass);
    }
  in
  let suite = [ too_big ] in
  let rng = Util.Prng.create ~seed:11L in
  let case =
    (* Draw until the generator yields a model with plenty of layers. *)
    let rec find i =
      let c = Validate.Gen.case rng ~index:i in
      if Cnn.Model.num_layers c.Validate.Case.model >= 12 then c
      else find (i + 1)
    in
    find 0
  in
  let v = Validate.Oracle.check ~suite case in
  checkb "original fails" false (Validate.Oracle.ok v);
  match Validate.Shrink.minimize ~suite v with
  | None -> Alcotest.fail "expected a shrunk counterexample"
  | Some s ->
    let n = Cnn.Model.num_layers s.Validate.Oracle.case.Validate.Case.model in
    checkb
      (Printf.sprintf "shrunk to %d layers (<= 6)" n)
      true (n <= 6);
    checkb "still fails the same invariant" true
      (List.mem_assoc "too-big" s.Validate.Oracle.failures)

let test_shrinker_none_on_pass () =
  let suite = Validate.Invariant.default_suite () in
  let case =
    Validate.Case.v
      (Cnn.Model_zoo.mobilenet_v2 ())
      Platform.Board.zcu102 (Validate.Case.Segmented 4)
  in
  let v = Validate.Oracle.check ~suite case in
  checkb "passing case" true (Validate.Oracle.ok v);
  checkb "nothing to shrink" true (Validate.Shrink.minimize ~suite v = None)

(* --------------------------------------------------------------- sweep *)

let test_sweep_smoke () =
  let t =
    Validate.Sweep.run ~samples:40 ~seed:12345L ~domains:2 ~corpus:corpus_path
      ()
  in
  check "corpus replayed" 3 t.Validate.Sweep.corpus_cases;
  check "all samples evaluated" 40 t.Validate.Sweep.generated_cases;
  if not (Validate.Sweep.ok t) then
    Alcotest.failf "sweep failed: %s" (Format.asprintf "%a" Validate.Sweep.pp t)

let test_sweep_domain_count_invariant () =
  (* Cases are drawn before any domain spawns, so the verdicts and the
     error statistics are a function of the seed alone. *)
  let run domains = Validate.Sweep.run ~samples:24 ~seed:77L ~domains () in
  let a = run 1 and b = run 4 in
  check "same case count" a.Validate.Sweep.generated_cases
    b.Validate.Sweep.generated_cases;
  check "same failure count"
    (List.length a.Validate.Sweep.failures)
    (List.length b.Validate.Sweep.failures);
  checkb "identical worst errors" true
    (a.Validate.Sweep.worst = b.Validate.Sweep.worst)

let () =
  Alcotest.run "validate"
    [
      ( "ideal exactness",
        [ Alcotest.test_case "zoo x baselines" `Slow test_ideal_exact_zoo ] );
      ( "case",
        [
          Alcotest.test_case "round trip generated" `Quick
            test_case_round_trip_generated;
          Alcotest.test_case "parse errors" `Quick test_case_parse_errors;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "replay passes" `Quick test_corpus_replay;
          Alcotest.test_case "cached replay bit-identical" `Quick
            test_corpus_cached_bit_identical;
          Alcotest.test_case "round trip" `Quick test_corpus_round_trip;
        ] );
      ( "shrink",
        [
          Alcotest.test_case "minimizes" `Quick test_shrinker_minimizes;
          Alcotest.test_case "none on pass" `Quick test_shrinker_none_on_pass;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "smoke" `Slow test_sweep_smoke;
          Alcotest.test_case "domain-count invariant" `Quick
            test_sweep_domain_count_invariant;
        ] );
    ]
