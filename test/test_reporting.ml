(* Tests for the per-layer report and the CSV exporter. *)

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let res50 = Cnn.Model_zoo.resnet50 ()

(* ----------------------------------------------------- Layer_report *)

let build archi = Workload_helper.build res50 Platform.Board.zcu102 archi

let test_layer_report_covers_all_layers () =
  List.iter
    (fun archi ->
      let rows = Mccm.Layer_report.of_build (build archi) in
      check "row per layer" (Cnn.Model.num_layers res50) (List.length rows);
      List.iteri
        (fun i (r : Mccm.Layer_report.row) ->
          check "in order" i r.Mccm.Layer_report.layer_index)
        rows)
    [
      Arch.Baselines.segmented ~ces:4 res50;
      Arch.Baselines.segmented_rr ~ces:4 res50;
      Arch.Baselines.hybrid ~ces:4 res50;
    ]

let test_layer_report_accesses_consistent () =
  (* Per-layer accesses must add up to the whole-accelerator metric. *)
  List.iter
    (fun archi ->
      let built = build archi in
      let rows = Mccm.Layer_report.of_build built in
      let total =
        List.fold_left
          (fun acc (r : Mccm.Layer_report.row) ->
            acc + Mccm.Access.total r.Mccm.Layer_report.accesses)
          0 rows
      in
      let metrics = Workload_helper.estimate built in
      check
        (archi.Arch.Block.name ^ " accesses add up")
        (Mccm.Metrics.accesses_bytes metrics)
        total)
    [
      Arch.Baselines.segmented ~ces:4 res50;
      Arch.Baselines.segmented_rr ~ces:3 res50;
      Arch.Baselines.hybrid ~ces:5 res50;
    ]

let test_layer_report_utilization_bounds () =
  let rows =
    Mccm.Layer_report.of_build (build (Arch.Baselines.hybrid ~ces:4 res50))
  in
  List.iter
    (fun (r : Mccm.Layer_report.row) ->
      checkb "util in (0,1]" true
        (r.Mccm.Layer_report.utilization > 0.0
        && r.Mccm.Layer_report.utilization <= 1.0 +. 1e-9))
    rows

let test_layer_report_pipelined_flags () =
  let rows =
    Mccm.Layer_report.of_build (build (Arch.Baselines.hybrid ~ces:4 res50))
  in
  let pipelined, sequential =
    List.partition (fun (r : Mccm.Layer_report.row) -> r.Mccm.Layer_report.pipelined) rows
  in
  check "first part pipelined" 3 (List.length pipelined);
  check "rest sequential" 50 (List.length sequential)

let test_hotspots () =
  let rows =
    Mccm.Layer_report.of_build (build (Arch.Baselines.segmented ~ces:4 res50))
  in
  let hs = Mccm.Layer_report.hotspots ~top:3 rows in
  check "three hotspots" 3 (List.length hs);
  let rec non_increasing = function
    | (a : Mccm.Layer_report.row) :: (b :: _ as rest) ->
      a.Mccm.Layer_report.cycles >= b.Mccm.Layer_report.cycles
      && non_increasing rest
    | _ -> true
  in
  checkb "sorted by cycles" true (non_increasing hs);
  let max_cycles =
    List.fold_left
      (fun acc (r : Mccm.Layer_report.row) -> max acc r.Mccm.Layer_report.cycles)
      0 rows
  in
  check "top is global max" max_cycles
    (List.hd hs).Mccm.Layer_report.cycles

(* -------------------------------------------------------------- Csv *)

let test_csv_basic () =
  let t = Report.Csv.create ~header:[ "a"; "b" ] in
  Report.Csv.add_row t [ "1"; "2" ];
  Report.Csv.add_row t [ "x,y"; "say \"hi\"" ];
  Alcotest.(check string)
    "rendering" "a,b\n1,2\n\"x,y\",\"say \"\"hi\"\"\"\n"
    (Report.Csv.to_string t)

let test_csv_mismatch () =
  let t = Report.Csv.create ~header:[ "a" ] in
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Csv.add_row: cell count mismatch") (fun () ->
      Report.Csv.add_row t [ "1"; "2" ])

let test_csv_of_metrics () =
  let m =
    Mccm.Evaluate.metrics res50 Platform.Board.zcu102
      (Arch.Baselines.hybrid ~ces:4 res50)
  in
  let t = Report.Csv.of_metrics_rows ~label_header:"arch" [ ("Hybrid/4", m) ] in
  let s = Report.Csv.to_string t in
  let lines = String.split_on_char '\n' s in
  check "header + row + trailing" 3 (List.length lines);
  checkb "has label" true
    (match lines with
    | _ :: row :: _ -> String.length row > 8 && String.sub row 0 8 = "Hybrid/4"
    | _ -> false)

let test_csv_of_breakdown () =
  let e =
    Mccm.Evaluate.evaluate res50 Platform.Board.zc706
      (Arch.Baselines.segmented ~ces:4 res50)
  in
  let t = Report.Csv.of_breakdown e.Mccm.Evaluate.breakdown in
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' (Report.Csv.to_string t))
  in
  (* header + one row per segment *)
  check "rows" (1 + List.length e.Mccm.Evaluate.breakdown.Mccm.Breakdown.segments)
    (List.length lines)

let test_csv_save_and_reload () =
  let t = Report.Csv.create ~header:[ "k"; "v" ] in
  Report.Csv.add_row t [ "x"; "1" ];
  let path = Filename.temp_file "mccm_test" ".csv" in
  Report.Csv.save t ~path;
  let content = In_channel.with_open_text path In_channel.input_all in
  Sys.remove path;
  Alcotest.(check string) "round trip" (Report.Csv.to_string t) content

let () =
  Alcotest.run "reporting"
    [
      ( "layer_report",
        [
          Alcotest.test_case "covers all layers" `Quick
            test_layer_report_covers_all_layers;
          Alcotest.test_case "accesses consistent" `Quick
            test_layer_report_accesses_consistent;
          Alcotest.test_case "utilization bounds" `Quick
            test_layer_report_utilization_bounds;
          Alcotest.test_case "pipelined flags" `Quick
            test_layer_report_pipelined_flags;
          Alcotest.test_case "hotspots" `Quick test_hotspots;
        ] );
      ( "csv",
        [
          Alcotest.test_case "basic" `Quick test_csv_basic;
          Alcotest.test_case "mismatch" `Quick test_csv_mismatch;
          Alcotest.test_case "of metrics" `Quick test_csv_of_metrics;
          Alcotest.test_case "of breakdown" `Quick test_csv_of_breakdown;
          Alcotest.test_case "save/reload" `Quick test_csv_save_and_reload;
        ] );
    ]
