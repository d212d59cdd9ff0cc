type row = {
  ablation : string;
  variant : string;
  instance : string;
  metrics : Mccm.Metrics.t;
}

type t = { rows : row list }

(* Equal-layer-count Segmented: the naive alternative to MAC-balanced
   boundaries. *)
let segmented_equal ~ces model =
  let n = Cnn.Model.num_layers model in
  let base = n / ces and rem = n mod ces in
  let blocks = ref [] in
  let start = ref 0 in
  for i = 0 to ces - 1 do
    let len = base + if i < rem then 1 else 0 in
    blocks :=
      Arch.Block.Single { ce = i; first = !start; last = !start + len - 1 }
      :: !blocks;
    start := !start + len
  done;
  Arch.Block.arch
    ~name:(Printf.sprintf "SegmentedEq/%d" ces)
    ~style:Arch.Block.Segmented ~blocks:(List.rev !blocks)
    ~coarse_pipelined:true ~num_layers:n

let eval ?options model board archi =
  let table = Cnn.Table.of_model model in
  (Mccm.Evaluate.run ~table (Builder.Build.build ?options ~table model board archi))
    .Mccm.Evaluate.metrics

let run ?(model = Cnn.Model_zoo.resnet50 ())
    ?(board = Platform.Board.vcu108) () =
  let instances =
    [
      ("Segmented/4", Arch.Baselines.segmented ~ces:4 model);
      ("SegmentedRR/4", Arch.Baselines.segmented_rr ~ces:4 model);
      ("Hybrid/4", Arch.Baselines.hybrid ~ces:4 model);
    ]
  in
  let with_options ~ablation ~variant options =
    List.map
      (fun (instance, archi) ->
        { ablation; variant; instance; metrics = eval ~options model board archi })
      instances
  in
  let parallelism =
    with_options ~ablation:"parallelism selection" ~variant:"builder"
      Builder.Build.default_options
    @ with_options ~ablation:"parallelism selection" ~variant:"naive square"
        { Builder.Build.default_options with parallelism = `Naive }
  in
  let buffers =
    with_options ~ablation:"buffer allocation" ~variant:"builder"
      Builder.Build.default_options
    @ with_options ~ablation:"buffer allocation" ~variant:"minimal only"
        { Builder.Build.default_options with buffers = `Minimal }
  in
  let pe_allocation =
    with_options ~ablation:"PE allocation" ~variant:"MAC-proportional"
      Builder.Build.default_options
    @ with_options ~ablation:"PE allocation" ~variant:"cycle-balanced"
        { Builder.Build.default_options with pe_allocation = `Balanced }
  in
  let segmentation =
    [
      {
        ablation = "segmentation";
        variant = "builder";
        instance = "Segmented/4";
        metrics = eval model board (Arch.Baselines.segmented ~ces:4 model);
      };
      {
        ablation = "segmentation";
        variant = "equal layer counts";
        instance = "SegmentedEq/4";
        metrics = eval model board (segmented_equal ~ces:4 model);
      };
    ]
  in
  { rows = parallelism @ buffers @ pe_allocation @ segmentation }

let print t =
  let ablations =
    List.sort_uniq compare (List.map (fun r -> r.ablation) t.rows)
  in
  List.iter
    (fun ablation ->
      let table =
        Util.Table.create
          ~title:(Printf.sprintf "Ablation: %s" ablation)
          ~columns:
            [
              ("variant", Util.Table.Left);
              ("instance", Util.Table.Left);
              ("latency", Util.Table.Right);
              ("throughput", Util.Table.Right);
              ("buffers", Util.Table.Right);
              ("accesses", Util.Table.Right);
            ]
          ()
      in
      List.iter
        (fun r ->
          if r.ablation = ablation then
            Util.Table.add_row table
              [
                r.variant;
                r.instance;
                Format.asprintf "%a" Util.Units.pp_seconds
                  r.metrics.Mccm.Metrics.latency_s;
                Printf.sprintf "%.1f inf/s"
                  r.metrics.Mccm.Metrics.throughput_ips;
                Format.asprintf "%a" Util.Units.pp_bytes
                  r.metrics.Mccm.Metrics.buffer_bytes;
                Format.asprintf "%a" Util.Units.pp_bytes
                  (Mccm.Metrics.accesses_bytes r.metrics);
              ])
        t.rows;
      Util.Table.print table;
      print_newline ())
    ablations
