type metric_summary = {
  segmented : Report.Accuracy.summary;
  segmented_rr : Report.Accuracy.summary;
  hybrid : Report.Accuracy.summary;
}

type t = {
  buffers : metric_summary;
  latency : metric_summary;
  throughput : metric_summary;
  accesses : metric_summary;
  experiments : int;
  best_arch_agreement : (string * int) list;
  settings : int;
}

type sample = {
  style : Arch.Block.style;
  ces : int;
  cnn : string;
  comparison : Report.Accuracy.comparison;
  estimated : Mccm.Metrics.t;
  reference : Mccm.Metrics.t;
}

let styles =
  [ Arch.Block.Segmented; Arch.Block.Segmented_rr; Arch.Block.Hybrid ]

let collect () =
  let board = Platform.Board.vcu108 in
  List.concat_map
    (fun model ->
      List.concat_map
        (fun ces ->
          List.map
            (fun style ->
              let archi = Common.baseline_arch style ~ces model in
              let table = Cnn.Table.of_model model in
              let built = Builder.Build.build ~table model board archi in
              let estimated =
                (Mccm.Evaluate.run ~table built).Mccm.Evaluate.metrics
              in
              let reference = (Sim.Simulate.run built).Sim.Simulate.metrics in
              {
                style;
                ces;
                cnn = model.Cnn.Model.abbreviation;
                comparison =
                  Report.Accuracy.compare_metrics ~reference ~estimated;
                estimated;
                reference;
              })
            styles)
        Arch.Baselines.default_ce_counts)
    (Cnn.Model_zoo.all ())

let summary_of samples pick =
  let of_style style =
    Report.Accuracy.summarize
      (List.filter_map
         (fun s -> if s.style = style then Some (pick s.comparison) else None)
         samples)
  in
  {
    segmented = of_style Arch.Block.Segmented;
    segmented_rr = of_style Arch.Block.Segmented_rr;
    hybrid = of_style Arch.Block.Hybrid;
  }

(* In how many (CNN, CE count) settings do the model and the surrogate
   name the same best architecture for a metric? *)
let agreement samples ~metric =
  let settings =
    List.sort_uniq compare (List.map (fun s -> (s.cnn, s.ces)) samples)
  in
  List.fold_left
    (fun acc (cnn, ces) ->
      let group =
        List.filter (fun s -> s.cnn = cnn && s.ces = ces) samples
      in
      let best_by value =
        List.fold_left
          (fun best s ->
            match best with
            | None -> Some s
            | Some b ->
              if Mccm.Metrics.better ~metric (value s) (value b) then Some s
              else best)
          None group
      in
      let est = best_by (fun s -> s.estimated) in
      let ref_ = best_by (fun s -> s.reference) in
      match (est, ref_) with
      | Some e, Some r when e.style = r.style -> acc + 1
      | _ -> acc)
    0 settings

let run () =
  let samples = collect () in
  let settings =
    List.length
      (List.sort_uniq compare (List.map (fun s -> (s.cnn, s.ces)) samples))
  in
  {
    buffers = summary_of samples (fun c -> c.Report.Accuracy.buffers);
    latency = summary_of samples (fun c -> c.Report.Accuracy.latency);
    throughput = summary_of samples (fun c -> c.Report.Accuracy.throughput);
    accesses = summary_of samples (fun c -> c.Report.Accuracy.accesses);
    experiments = List.length samples;
    best_arch_agreement =
      [
        ("latency", agreement samples ~metric:`Latency);
        ("throughput", agreement samples ~metric:`Throughput);
        ("buffers", agreement samples ~metric:`Buffers);
        ("accesses", agreement samples ~metric:`Accesses);
      ];
    settings;
  }

let print t =
  let table =
    Util.Table.create
      ~title:
        (Printf.sprintf
           "Table IV: MCCM accuracy vs synthesis surrogate on VCU108 (%d \
            experiments)"
           t.experiments)
      ~columns:
        [
          ("metric", Util.Table.Left);
          ("architecture", Util.Table.Left);
          ("max", Util.Table.Right);
          ("min", Util.Table.Right);
          ("average", Util.Table.Right);
        ]
      ()
  in
  let pct v = Printf.sprintf "%.1f%%" v in
  let rows ?(last = false) name (m : metric_summary) =
    List.iter
      (fun (arch, (s : Report.Accuracy.summary)) ->
        Util.Table.add_row table
          [ name; arch; pct s.Report.Accuracy.max; pct s.Report.Accuracy.min;
            pct s.Report.Accuracy.average ])
      [
        ("Segmented", m.segmented);
        ("SegmentedRR", m.segmented_rr);
        ("Hybrid", m.hybrid);
      ];
    if not last then Util.Table.add_separator table
  in
  rows "On-chip buffers" t.buffers;
  rows "Latency" t.latency;
  rows "Throughput" t.throughput;
  rows ~last:true "Off-chip accesses" t.accesses;
  Util.Table.print table;
  Format.printf
    "Best-architecture prediction agreement over %d settings: %s@."
    t.settings
    (String.concat ", "
       (List.map
          (fun (m, n) -> Printf.sprintf "%s %d/%d" m n t.settings)
          t.best_arch_agreement))
