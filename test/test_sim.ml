(* Tests for the synthesis-surrogate simulator and its agreement with the
   analytical model (the relationship behind Table IV). *)

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let res50 = Cnn.Model_zoo.resnet50 ()
let mobv2 = Cnn.Model_zoo.mobilenet_v2 ()

(* -------------------------------------------------------------- Dma *)

let test_dma_transfer_time () =
  let dma =
    Sim.Dma.create Sim.Sim_config.default Platform.Board.zc706 ~clock_hz:200e6
  in
  (* 3.2 GB/s at 200 MHz = 16 bytes per cycle. *)
  Alcotest.(check (float 1e-6))
    "1600 bytes = 100 cycles + latency"
    (100.0 +. 256.0)
    (Sim.Dma.transfer_cycles dma ~bytes:1600)

let test_dma_zero_bytes () =
  let dma =
    Sim.Dma.create Sim.Sim_config.default Platform.Board.zc706 ~clock_hz:200e6
  in
  Alcotest.(check (float 1e-9)) "no-op" 5.0 (Sim.Dma.request dma ~at:5.0 ~bytes:0);
  check "nothing moved" 0 (Sim.Dma.total_bytes dma)

let test_dma_accounts_bytes () =
  let dma =
    Sim.Dma.create Sim.Sim_config.default Platform.Board.zc706 ~clock_hz:200e6
  in
  ignore (Sim.Dma.request dma ~at:0.0 ~bytes:100);
  ignore (Sim.Dma.request dma ~at:0.0 ~bytes:200);
  check "300 bytes" 300 (Sim.Dma.total_bytes dma)

(* ------------------------------------------------------- Sim_config *)

let test_achieved_clock () =
  let board = Platform.Board.zcu102 in
  let full =
    Sim.Sim_config.achieved_clock_hz Sim.Sim_config.default board
      ~dsps_used:board.Platform.Board.dsps
      ~bram_used:board.Platform.Board.bram_bytes
  in
  checkb "derated below nominal" true (full < board.Platform.Board.clock_hz);
  let ideal =
    Sim.Sim_config.achieved_clock_hz Sim.Sim_config.ideal board
      ~dsps_used:board.Platform.Board.dsps
      ~bram_used:board.Platform.Board.bram_bytes
  in
  Alcotest.(check (float 1.0)) "ideal keeps nominal"
    board.Platform.Board.clock_hz ideal

(* ----------------------------------------------- model/sim agreement *)

let instances model =
  List.map snd (Arch.Baselines.all_instances model)

let test_accesses_exact () =
  (* The paper: "MCCM off-chip accesses calculations are exact". *)
  List.iter
    (fun archi ->
      let built = Workload_helper.build res50 Platform.Board.vcu108 archi in
      let est = Workload_helper.estimate built in
      let ref_ = (Sim.Simulate.run built).Sim.Simulate.metrics in
      check
        (Printf.sprintf "accesses equal for %s" archi.Arch.Block.name)
        (Mccm.Metrics.accesses_bytes ref_)
        (Mccm.Metrics.accesses_bytes est))
    (instances res50)

let test_buffer_banked_at_least_model () =
  List.iter
    (fun archi ->
      let built = Workload_helper.build mobv2 Platform.Board.zcu102 archi in
      let est = Workload_helper.estimate built in
      let ref_ = (Sim.Simulate.run built).Sim.Simulate.metrics in
      checkb "bank rounding only grows buffers" true
        (ref_.Mccm.Metrics.buffer_bytes >= est.Mccm.Metrics.buffer_bytes))
    (instances mobv2)

let test_sim_slower_than_model () =
  (* Overheads and derating only slow the surrogate down. *)
  List.iter
    (fun archi ->
      let built = Workload_helper.build mobv2 Platform.Board.vcu108 archi in
      let est = Workload_helper.estimate built in
      let ref_ = (Sim.Simulate.run built).Sim.Simulate.metrics in
      checkb "sim latency >= model" true
        (ref_.Mccm.Metrics.latency_s >= est.Mccm.Metrics.latency_s *. 0.999);
      checkb "sim throughput <= model" true
        (ref_.Mccm.Metrics.throughput_ips
        <= est.Mccm.Metrics.throughput_ips *. 1.001))
    (instances mobv2)

let accuracy_floor ~board ~model ~floor =
  List.iter
    (fun archi ->
      let built = Workload_helper.build model board archi in
      let est = Workload_helper.estimate built in
      let ref_ = (Sim.Simulate.run built).Sim.Simulate.metrics in
      let c = Report.Accuracy.compare_metrics ~reference:ref_ ~estimated:est in
      checkb
        (Printf.sprintf "%s latency accuracy %.1f >= %.0f" archi.Arch.Block.name
           c.Report.Accuracy.latency floor)
        true
        (c.Report.Accuracy.latency >= floor);
      checkb
        (Printf.sprintf "%s throughput accuracy %.1f >= %.0f"
           archi.Arch.Block.name c.Report.Accuracy.throughput floor)
        true
        (c.Report.Accuracy.throughput >= floor))
    (instances model)

let test_accuracy_floor_vcu108 () =
  (* The paper's Table IV worst case is 80.7%; hold a conservative 75%
     floor across every baseline instance. *)
  accuracy_floor ~board:Platform.Board.vcu108 ~model:res50 ~floor:75.0;
  accuracy_floor ~board:Platform.Board.vcu108 ~model:mobv2 ~floor:75.0

let test_ideal_config_matches_model () =
  (* With all overheads disabled, the surrogate collapses exactly onto
     the analytical model: agreement is ulp-level (the two sum in
     different units), and byte counts match to the byte. *)
  List.iter
    (fun archi ->
      let built = Workload_helper.build mobv2 Platform.Board.zcu102 archi in
      let est = Workload_helper.estimate built in
      let ref_ =
        (Sim.Simulate.run ~cfg:Sim.Sim_config.ideal built).Sim.Simulate.metrics
      in
      let ratio = ref_.Mccm.Metrics.latency_s /. est.Mccm.Metrics.latency_s in
      checkb
        (Printf.sprintf "%s ideal latency ratio %.15f exact"
           archi.Arch.Block.name ratio)
        true
        (Float.abs (ratio -. 1.0) <= 1e-9);
      check
        (archi.Arch.Block.name ^ " ideal accesses exact")
        (Mccm.Metrics.accesses_bytes est)
        (Mccm.Metrics.accesses_bytes ref_))
    [
      Arch.Baselines.segmented ~ces:4 mobv2;
      Arch.Baselines.segmented_rr ~ces:4 mobv2;
      Arch.Baselines.hybrid ~ces:4 mobv2;
    ]

let test_sim_deterministic () =
  let run () =
    (Sim.Simulate.evaluate res50 Platform.Board.zc706
       (Arch.Baselines.segmented_rr ~ces:3 res50))
      .Sim.Simulate.metrics
  in
  let a = run () and b = run () in
  Alcotest.(check (float 0.0))
    "same latency" a.Mccm.Metrics.latency_s b.Mccm.Metrics.latency_s;
  check "same buffers" a.Mccm.Metrics.buffer_bytes b.Mccm.Metrics.buffer_bytes

(* ------------------------------------------------------- properties *)

let prop_accesses_exact_all_boards =
  QCheck2.Test.make ~name:"access parity on random instances/boards" ~count:20
    QCheck2.Gen.(
      triple (int_range 2 11)
        (oneofl [ `Seg; `Rr; `Hyb ])
        (oneofl Platform.Board.all))
    (fun (ces, style, board) ->
      let archi =
        match style with
        | `Seg -> Arch.Baselines.segmented ~ces mobv2
        | `Rr -> Arch.Baselines.segmented_rr ~ces mobv2
        | `Hyb -> Arch.Baselines.hybrid ~ces mobv2
      in
      let built = Workload_helper.build mobv2 board archi in
      let est = Workload_helper.estimate built in
      let ref_ = (Sim.Simulate.run built).Sim.Simulate.metrics in
      Mccm.Metrics.accesses_bytes est = Mccm.Metrics.accesses_bytes ref_)

(* ------------------------------------------------------------ Trace *)

let test_trace_collects_all_tiles () =
  let built =
    Workload_helper.build mobv2 Platform.Board.zcu102
      (Arch.Baselines.segmented_rr ~ces:4 mobv2)
  in
  match Sim.Simulate.trace_block built ~block:0 with
  | None -> Alcotest.fail "pipelined block must trace"
  | Some trace ->
    (* One Tile event per (layer, tile) of one input. *)
    let expected =
      match built.Builder.Build.plan.Builder.Buffer_alloc.block_plans.(0) with
      | Builder.Buffer_alloc.Plan_pipelined p ->
        let acc = ref 0 in
        Array.iteri
          (fun i rows ->
            let layer = Cnn.Model.layer mobv2 i in
            acc :=
              !acc
              + Builder.Tiling.num_row_tiles layer ~rows
                * p.Builder.Buffer_alloc.width_split)
          p.Builder.Buffer_alloc.tile_rows;
        !acc
      | Builder.Buffer_alloc.Plan_single _ -> Alcotest.fail "wrong plan"
    in
    check "tile events" expected (Sim.Trace.tile_count trace);
    let lo, hi = Sim.Trace.span trace in
    checkb "positive span" true (hi > lo);
    (* Events are causally ordered per engine. *)
    let by_engine = Hashtbl.create 8 in
    List.iter
      (function
        | Sim.Trace.Tile { engine; start; finish; _ } ->
          checkb "finish after start" true (finish > start);
          (match Hashtbl.find_opt by_engine engine with
          | Some prev -> checkb "engine serial" true (start >= prev -. 1e-9)
          | None -> ());
          Hashtbl.replace by_engine engine finish
        | Sim.Trace.Burst _ -> ())
      (Sim.Trace.events trace)

let test_trace_single_block_none () =
  let built =
    Workload_helper.build mobv2 Platform.Board.zcu102
      (Arch.Baselines.segmented ~ces:4 mobv2)
  in
  checkb "single blocks yield no trace" true
    (Sim.Simulate.trace_block built ~block:0 = None)

let test_trace_gantt_renders () =
  let built =
    Workload_helper.build mobv2 Platform.Board.zcu102
      (Arch.Baselines.segmented_rr ~ces:3 mobv2)
  in
  match Sim.Simulate.trace_block built ~block:0 with
  | None -> Alcotest.fail "expected a trace"
  | Some trace ->
    let s = Sim.Trace.render_gantt ~width:60 trace in
    checkb "has engine lanes" true
      (String.split_on_char '\n' s
      |> List.exists (fun l -> String.length l > 3 && String.sub l 0 2 = "CE"))

let test_trace_out_of_range () =
  let built =
    Workload_helper.build mobv2 Platform.Board.zcu102
      (Arch.Baselines.segmented ~ces:2 mobv2)
  in
  Alcotest.check_raises "range"
    (Invalid_argument "Simulate.trace_block: block index out of range")
    (fun () -> ignore (Sim.Simulate.trace_block built ~block:9))

let properties =
  List.map QCheck_alcotest.to_alcotest [ prop_accesses_exact_all_boards ]

let () =
  Alcotest.run "sim"
    [
      ( "dma",
        [
          Alcotest.test_case "transfer time" `Quick test_dma_transfer_time;
          Alcotest.test_case "zero bytes" `Quick test_dma_zero_bytes;
          Alcotest.test_case "byte accounting" `Quick test_dma_accounts_bytes;
        ] );
      ( "config",
        [ Alcotest.test_case "achieved clock" `Quick test_achieved_clock ] );
      ( "agreement",
        [
          Alcotest.test_case "accesses exact" `Quick test_accesses_exact;
          Alcotest.test_case "buffers banked" `Quick
            test_buffer_banked_at_least_model;
          Alcotest.test_case "sim slower" `Quick test_sim_slower_than_model;
          Alcotest.test_case "accuracy floor" `Slow test_accuracy_floor_vcu108;
          Alcotest.test_case "ideal config" `Quick
            test_ideal_config_matches_model;
          Alcotest.test_case "deterministic" `Quick test_sim_deterministic;
        ] );
      ( "trace",
        [
          Alcotest.test_case "collects all tiles" `Quick
            test_trace_collects_all_tiles;
          Alcotest.test_case "single block none" `Quick
            test_trace_single_block_none;
          Alcotest.test_case "gantt renders" `Quick test_trace_gantt_renders;
          Alcotest.test_case "out of range" `Quick test_trace_out_of_range;
        ] );
      ("properties", properties);
    ]
