(* Robustness and failure-injection tests: the methodology must degrade
   gracefully — tiny boards produce infeasible-but-evaluated designs, odd
   models evaluate without crashing, and the notation parser never
   raises on garbage. *)

let checkb = Alcotest.(check bool)

let mobv2 = Cnn.Model_zoo.mobilenet_v2 ()

(* ------------------------------------------------- resource starvation *)

let tiny_board ~bram_mib =
  Platform.Board.v ~name:"tiny" ~dsps:64 ~bram_mib ~bandwidth_gb_per_sec:0.5
    ()

let test_starved_bram_is_infeasible_not_crash () =
  (* 0.01 MiB cannot hold even minimal working sets for most designs. *)
  let board = tiny_board ~bram_mib:0.01 in
  List.iter
    (fun (_, archi) ->
      let m = Mccm.Evaluate.metrics mobv2 board archi in
      (* Either infeasible, or a genuinely tiny plan; never an exception,
         always positive numbers. *)
      checkb "latency positive" true (m.Mccm.Metrics.latency_s > 0.0);
      checkb "accesses positive" true (Mccm.Metrics.accesses_bytes m > 0))
    (Arch.Baselines.all_instances mobv2)

let test_starved_bram_flags_infeasible () =
  let board = tiny_board ~bram_mib:0.005 in
  let m =
    Mccm.Evaluate.metrics mobv2 board (Arch.Baselines.segmented ~ces:4 mobv2)
  in
  checkb "flagged infeasible" false m.Mccm.Metrics.feasible

let test_starved_bandwidth_memory_bound () =
  (* A board with near-zero bandwidth must be reported memory-bound. *)
  let board =
    Platform.Board.v ~name:"slow" ~dsps:900 ~bram_mib:2.4
      ~bandwidth_gb_per_sec:0.05 ()
  in
  let e =
    Mccm.Evaluate.evaluate mobv2 board (Arch.Baselines.segmented ~ces:4 mobv2)
  in
  checkb "stalls dominate" true
    (e.Mccm.Evaluate.breakdown.Mccm.Breakdown.stall_fraction > 0.5)

let test_dse_survives_tiny_board () =
  let board = tiny_board ~bram_mib:0.02 in
  let r = Dse.Explore.run ~seed:1L ~samples:50 mobv2 board in
  (* No crash; infeasible designs silently dropped. *)
  checkb "sampled all" true (r.Dse.Explore.sampled = 50)

(* ------------------------------------------------------- tiny models *)

let tiny_model ~layers =
  let ls =
    List.init layers (fun i ->
        Cnn.Layer.v ~index:i ~name:(Printf.sprintf "t%d" i)
          ~kind:Cnn.Layer.Standard
          ~in_shape:(Cnn.Shape.v ~channels:4 ~height:8 ~width:8)
          ~out_channels:4 ~kernel:3 ~stride:1 ~padding:1 ())
  in
  Cnn.Model.v ~name:"T" ~abbreviation:"T" ~layers:ls

let test_two_layer_model () =
  let m = tiny_model ~layers:2 in
  List.iter
    (fun archi ->
      let r = Mccm.Evaluate.metrics m Platform.Board.zc706 archi in
      checkb "evaluates" true (r.Mccm.Metrics.latency_s > 0.0))
    [
      Arch.Baselines.segmented ~ces:2 m;
      Arch.Baselines.segmented_rr ~ces:2 m;
      Arch.Baselines.hybrid ~ces:2 m;
    ]

let test_single_layer_per_engine () =
  (* SegmentedRR with as many engines as layers: a pure layer pipeline. *)
  let m = tiny_model ~layers:6 in
  let r =
    Mccm.Evaluate.metrics m Platform.Board.zc706
      (Arch.Baselines.segmented_rr ~ces:6 m)
  in
  checkb "evaluates" true (r.Mccm.Metrics.throughput_ips > 0.0)

let test_model_vs_sim_on_tiny () =
  let m = tiny_model ~layers:4 in
  let built =
    Workload_helper.build m Platform.Board.zc706
      (Arch.Baselines.hybrid ~ces:3 m)
  in
  let est = Workload_helper.estimate built in
  let ref_ = (Sim.Simulate.run built).Sim.Simulate.metrics in
  Alcotest.(check int)
    "access parity"
    (Mccm.Metrics.accesses_bytes est)
    (Mccm.Metrics.accesses_bytes ref_)

(* ---------------------------------------------------- parser fuzzing *)

let printable_gen = QCheck2.Gen.(string_size ~gen:(char_range ' ' '~') (int_range 0 60))

let prop_notation_never_raises =
  QCheck2.Test.make ~name:"notation parser never raises" ~count:500
    printable_gen (fun s ->
      match Arch.Notation.parse ~num_layers:53 s with
      | Ok _ | Error _ -> true)

let prop_notation_mutations =
  (* Mutate a valid string: the parser must still never raise. *)
  QCheck2.Test.make ~name:"mutated valid notation never raises" ~count:500
    QCheck2.Gen.(pair (int_bound 30) (char_range ' ' '~'))
    (fun (pos, c) ->
      let base = "{L1-L4:CE1, L5-L53:CE2-CE4}" in
      let b = Bytes.of_string base in
      if pos < Bytes.length b then Bytes.set b pos c;
      match Arch.Notation.parse ~num_layers:53 (Bytes.to_string b) with
      | Ok _ | Error _ -> true)

let prop_model_io_never_raises =
  QCheck2.Test.make ~name:"model parser never raises" ~count:500
    QCheck2.Gen.(
      list_size (int_range 0 8)
        (oneofl
           [ "cnn X Y"; "input 3x8x8"; "conv 4"; "dw"; "pw 8"; "pool s=2";
             "fc 10"; "garbage line"; "conv -1"; "set 0x0x0"; "" ]))
    (fun lines ->
      match Cnn.Model_io.of_string (String.concat "\n" lines) with
      | Ok _ | Error _ -> true)

let prop_random_custom_archs_evaluate =
  (* Fuzz the full pipeline: any valid random custom design must evaluate
     under both the model and the surrogate with byte-equal accesses. *)
  QCheck2.Test.make ~name:"random customs evaluate, accesses agree" ~count:25
    QCheck2.Gen.(int_bound 10000)
    (fun seed ->
      let rng = Util.Prng.create ~seed:(Int64.of_int seed) in
      let spec =
        Dse.Space.random_spec rng
          ~num_layers:(Cnn.Model.num_layers mobv2)
          ~ce_counts:[ 2; 3; 4; 5; 6 ]
      in
      let archi = Arch.Custom.arch_of_spec mobv2 spec in
      let built = Workload_helper.build mobv2 Platform.Board.vcu108 archi in
      let est = Workload_helper.estimate built in
      let ref_ = (Sim.Simulate.run built).Sim.Simulate.metrics in
      Mccm.Metrics.accesses_bytes est = Mccm.Metrics.accesses_bytes ref_
      && est.Mccm.Metrics.latency_s > 0.0
      && Builder.Buffer_alloc.audit mobv2 Platform.Board.vcu108 archi
           built.Builder.Build.plan
         = [])

let properties =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_notation_never_raises; prop_notation_mutations;
      prop_model_io_never_raises; prop_random_custom_archs_evaluate;
    ]

let () =
  Alcotest.run "robustness"
    [
      ( "starvation",
        [
          Alcotest.test_case "BRAM starvation no crash" `Quick
            test_starved_bram_is_infeasible_not_crash;
          Alcotest.test_case "BRAM starvation flagged" `Quick
            test_starved_bram_flags_infeasible;
          Alcotest.test_case "bandwidth starvation" `Quick
            test_starved_bandwidth_memory_bound;
          Alcotest.test_case "DSE survives" `Quick test_dse_survives_tiny_board;
        ] );
      ( "tiny models",
        [
          Alcotest.test_case "two layers" `Quick test_two_layer_model;
          Alcotest.test_case "layer per engine" `Quick
            test_single_layer_per_engine;
          Alcotest.test_case "model vs sim" `Quick test_model_vs_sim_on_tiny;
        ] );
      ("fuzz", properties);
    ]
