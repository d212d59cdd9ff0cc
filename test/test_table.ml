(* Tests for the precomputed per-layer table (Cnn.Table), the parallel
   chunking helper (Util.Parallel) and the bound-pruned, Domains-parallel
   exhaustive scan (Dse.Enumerate.exhaustive_best).

   The load-bearing claims are all bit-exactness claims: every table
   reader the builder and the cost models call must agree with its
   [Cnn.Layer]/[Cnn.Model] list-fold reference to the last bit, and the
   pruned/parallel scans must return exactly what the sequential
   unpruned scan returns. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ------------------------------------------------- table vs list fold *)

(* Every aggregate the table serves must equal the Model/Layer reference
   computation on random models and random ranges. *)
let prop_table_matches_model =
  QCheck2.Test.make ~name:"table aggregates equal list-fold reference"
    ~count:100
    QCheck2.Gen.(pair Generators.model (pair small_nat small_nat))
    (fun (model, (a, b)) ->
      let t = Cnn.Table.of_model model in
      let n = Cnn.Model.num_layers model in
      let first = a mod n and last = b mod n in
      let first, last = (min first last, max first last) in
      Cnn.Table.macs_range t ~first ~last
      = Cnn.Model.macs_in_range model ~first ~last
      && Cnn.Table.weights_range t ~first ~last
         = Cnn.Model.weights_in_range model ~first ~last
      && Cnn.Table.max_fms_range t ~first ~last
         = Cnn.Model.max_fms_elements model ~first ~last
      && Cnn.Table.total_macs t
         = Cnn.Model.macs_in_range model ~first:0 ~last:(n - 1)
      && Cnn.Table.total_weights t
         = Cnn.Model.weights_in_range model ~first:0 ~last:(n - 1))

(* A compute engine with arbitrary small unroll factors on all six
   loop dimensions and some PE slack, so the table readers below are
   exercised off the (Filters, Height, Width) shapes the builder
   picks. *)
let engine =
  QCheck2.Gen.(
    let factor = int_range 1 7 in
    let* f = factor and* c = factor and* h = factor and* w = factor in
    let* kh = int_range 1 3 and* kw = int_range 1 3 and* slack = int_range 0 16 in
    let par =
      Engine.Parallelism.of_factors
        Engine.Parallelism.
          [ (Filters, f); (Channels, c); (Height, h); (Width, w);
            (Kernel_h, kh); (Kernel_w, kw) ]
    in
    let* dataflow =
      oneofl
        Engine.Dataflow.[ Weight_stationary; Output_stationary; Input_stationary ]
    in
    return
      (Engine.Ce.v ~id:1 ~pes:(Engine.Parallelism.degree par + slack)
         ~parallelism:par ~dataflow))

(* Every per-layer reader of the table-backed evaluation path against
   the [Cnn.Layer] computation it replaced: the table's own scalars,
   the engine's Eq.-1 readers and the buffer planner's tile readers. *)
let prop_table_per_layer_scalars =
  QCheck2.Test.make ~name:"per-layer scalars equal Layer accessors"
    ~count:100
    QCheck2.Gen.(pair Generators.model (pair engine (pair (int_range 1 4) (int_range 1 8))))
    (fun (model, (ce, (bpe, width_split))) ->
      let t = Cnn.Table.of_model model in
      let n = Cnn.Model.num_layers model in
      let ok = ref true in
      for i = 0 to n - 1 do
        let l = Cnn.Model.layer model i in
        let s_in = l.Cnn.Layer.in_shape and s_out = Cnn.Layer.out_shape l in
        let ef, ec, eh, ew, ekh, ekw = Cnn.Table.extents t i in
        let rows = 1 + (i mod s_out.Cnn.Shape.height) in
        ok :=
          !ok
          && Cnn.Table.macs t i = Cnn.Layer.macs l
          && Cnn.Table.weight_elements t i = Cnn.Layer.weight_elements l
          && Cnn.Table.ifm_elements t i = Cnn.Layer.ifm_elements l
          && Cnn.Table.ofm_elements t i = Cnn.Layer.ofm_elements l
          && Cnn.Table.fms_elements t i = Cnn.Layer.fms_elements l
          && Cnn.Table.extra_resident_elements t i
             = l.Cnn.Layer.extra_resident_elements
          && Cnn.Table.band1_elements t i
             = Builder.Tiling.ifm_rows_for_ofm_rows l ~rows:1
               * s_in.Cnn.Shape.width * s_in.Cnn.Shape.channels
          && Cnn.Table.in_height t i = s_in.Cnn.Shape.height
          && Cnn.Table.in_width t i = s_in.Cnn.Shape.width
          && Cnn.Table.in_channels t i = s_in.Cnn.Shape.channels
          && Cnn.Table.out_height t i = s_out.Cnn.Shape.height
          && Cnn.Table.out_width t i = s_out.Cnn.Shape.width
          && Cnn.Table.out_channels t i = s_out.Cnn.Shape.channels
          && Cnn.Table.kernel t i = l.Cnn.Layer.kernel
          && Cnn.Table.stride t i = l.Cnn.Layer.stride
          && Cnn.Table.padding t i = l.Cnn.Layer.padding
          && Cnn.Table.is_depthwise t i = (l.Cnn.Layer.kind = Cnn.Layer.Depthwise)
          && ef = Cnn.Layer.loop_extent l `Filters
          && ec = Cnn.Layer.loop_extent l `Channels
          && eh = Cnn.Layer.loop_extent l `Height
          && ew = Cnn.Layer.loop_extent l `Width
          && ekh = Cnn.Layer.loop_extent l `Kernel_h
          && ekw = Cnn.Layer.loop_extent l `Kernel_w
          && Engine.Ce.layer_cycles_at ce t i = Engine.Ce.layer_cycles ce l
          && Engine.Ce.tile_cycles_at ce t i ~rows
             = Engine.Ce.tile_cycles ce l ~rows
          && Engine.Ce.ideal_cycles_at ~pes:ce.Engine.Ce.pes t i
             = Engine.Ce.ideal_cycles ~pes:ce.Engine.Ce.pes l
          && Builder.Tiling.weight_tile_elements_at ce t i
             = Builder.Tiling.weight_tile_elements ce l
          && Builder.Tiling.min_fm_elements_at t i
             = Builder.Tiling.min_fm_elements l
          && Builder.Tiling.fm_tile_bytes_at ~bpe ~width_split t i ~rows
             = Builder.Tiling.fm_tile_bytes ~bpe ~width_split l ~rows
      done;
      (* Float utilization over every suffix range: identical operations
         in identical order, so exact equality. *)
      for first = 0 to n - 1 do
        ok :=
          !ok
          && Engine.Ce.average_utilization_at ce t ~first ~last:(n - 1)
             = Engine.Ce.average_utilization ce
                 (Cnn.Model.layers_in_range model ~first ~last:(n - 1))
      done;
      (* Shape ids: equal exactly when the extents are, numbered densely
         in order of first appearance. *)
      let next = ref 0 in
      for i = 0 to n - 1 do
        let s = Cnn.Table.shape_id t i in
        if s = !next then incr next;
        ok := !ok && s < !next;
        for j = 0 to i - 1 do
          ok :=
            !ok
            && (Cnn.Table.shape_id t j = s)
               = (Cnn.Table.extents t j = Cnn.Table.extents t i)
        done
      done;
      !ok && Cnn.Table.num_shapes t = !next)

(* ------------------------------------------------------ Util.Parallel *)

let test_bounds_partition () =
  List.iter
    (fun (chunks, n) ->
      let parts = Util.Parallel.bounds ~chunks ~n in
      (* The chunk count is capped at [n]: asking for more chunks than
         items returns [n] singletons, never empty chunks that would
         each still cost a domain spawn (the pre-pool regression). *)
      let expect = max 1 (min chunks (max 1 n)) in
      checki "chunk count" expect (Array.length parts);
      let lo0, _ = parts.(0) in
      checki "starts at 0" 0 lo0;
      let _, hi_last = parts.(Array.length parts - 1) in
      checki "ends at n" n hi_last;
      Array.iteri
        (fun i (lo, hi) ->
          checkb "contiguous" true
            (i = 0 || snd parts.(i - 1) = lo);
          checkb "non-empty while n > 0" true (n = 0 || hi > lo);
          checkb "sizes differ by at most one" true
            (hi - lo >= n / expect && hi - lo <= (n / expect) + 1))
        parts)
    [ (1, 10); (3, 10); (4, 12); (7, 5); (5, 0); (8, 3); (3, 3) ]

let test_effective_clamps () =
  checki "never below 1" 1 (Util.Parallel.effective ~domains:0 ~n:10 ());
  checki "clamped by n" 3
    (Util.Parallel.effective ~clamp:false ~domains:8 ~n:3 ());
  checki "unclamped honours request" 4
    (Util.Parallel.effective ~clamp:false ~domains:4 ~n:100 ());
  checkb "clamped by recommended count" true
    (Util.Parallel.effective ~domains:64 ~n:1000 ()
    <= Util.Parallel.recommended ())

let test_chunked_map_order () =
  (* The concatenated chunk results must reproduce the sequential scan,
     in order, for every domain count. *)
  let n = 37 in
  let seq = List.init n (fun i -> i * i) in
  List.iter
    (fun domains ->
      let out =
        List.concat
          (Util.Parallel.chunked_map ~clamp:false ~domains ~n
             (fun ~chunk:_ ~lo ~hi -> List.init (hi - lo) (fun k ->
                  let i = lo + k in
                  i * i)))
      in
      checkb (Printf.sprintf "domains=%d" domains) true (out = seq))
    [ 1; 2; 4; 5 ]

(* ------------------------------- parallel + pruned exhaustive scans *)

let mobv2 = Cnn.Model_zoo.mobilenet_v2 ()
let board = Platform.Board.vcu108

let test_exhaustive_domain_invariant () =
  (* The full evaluated list (order included) must be identical for
     every domain count, even when the domains are oversubscribed. *)
  let run domains =
    Dse.Enumerate.exhaustive ~max_specs:120 ~domains ~clamp:false ~ces:3
      mobv2 board
  in
  let reference = run 1 in
  List.iter
    (fun d ->
      checkb (Printf.sprintf "domains=%d identical" d) true (run d = reference))
    [ 2; 4 ]

let test_exhaustive_best_matches_unpruned_sequential () =
  (* The pruned, parallel scan must return the same best design as the
     sequential unpruned scan, for both objectives and domains 1/2/4. *)
  List.iter
    (fun objective ->
      let reference, ref_stats =
        Dse.Enumerate.exhaustive_best ~max_specs:150 ~domains:1 ~prune:false
          ~objective ~ces:3 mobv2 board
      in
      checki "unpruned evaluates everything" ref_stats.Dse.Enumerate.enumerated
        ref_stats.Dse.Enumerate.evaluated;
      List.iter
        (fun domains ->
          let best, stats =
            Dse.Enumerate.exhaustive_best ~max_specs:150 ~domains ~clamp:false
              ~prune:true ~objective ~ces:3 mobv2 board
          in
          checkb
            (Printf.sprintf "domains=%d same best" domains)
            true (best = reference);
          checki "evaluated + pruned = enumerated" stats.Dse.Enumerate.enumerated
            (stats.Dse.Enumerate.evaluated + stats.Dse.Enumerate.pruned))
        [ 1; 2; 4 ])
    [ `Throughput; `Latency ]

let test_exhaustive_best_agrees_with_exhaustive () =
  (* The scan's winner must be the argmax of the plain evaluated list
     (first occurrence on ties). *)
  let evaluated = Dse.Enumerate.exhaustive ~max_specs:150 ~ces:3 mobv2 board in
  let best, _ =
    Dse.Enumerate.exhaustive_best ~max_specs:150 ~objective:`Throughput ~ces:3
      mobv2 board
  in
  let by_list =
    List.fold_left
      (fun acc (e : Dse.Explore.evaluated) ->
        match acc with
        | Some (b : Dse.Explore.evaluated)
          when b.metrics.Mccm.Metrics.throughput_ips
               >= e.metrics.Mccm.Metrics.throughput_ips ->
          acc
        | _ -> Some e)
      None evaluated
  in
  checkb "argmax of evaluated list" true (best = by_list)

(* ------------------------------------------------ bound admissibility *)

let prop_bounds_admissible =
  let table = Cnn.Table.of_model mobv2 in
  let b = Dse.Bounds.create table board in
  let session = Mccm.Eval_session.create mobv2 board in
  QCheck2.Test.make ~name:"bounds are admissible on random specs" ~count:60
    (Generators.custom_spec ~num_layers:(Cnn.Model.num_layers mobv2))
    (fun spec ->
      let ub = Dse.Bounds.throughput_upper_bound b spec in
      let lb = Dse.Bounds.latency_lower_bound b spec in
      let m =
        Mccm.Eval_session.metrics session (Arch.Custom.arch_of_spec mobv2 spec)
      in
      (not m.Mccm.Metrics.feasible)
      || (ub >= m.Mccm.Metrics.throughput_ips
         && lb <= m.Mccm.Metrics.latency_s))

(* ---------------------------------------------------------- plumbing *)

let () =
  Alcotest.run "table"
    [
      ( "table",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_table_matches_model;
            prop_table_per_layer_scalars;
          ] );
      ( "parallel",
        [
          Alcotest.test_case "bounds partition [0,n)" `Quick
            test_bounds_partition;
          Alcotest.test_case "effective clamps" `Quick test_effective_clamps;
          Alcotest.test_case "chunked_map preserves order" `Quick
            test_chunked_map_order;
        ] );
      ( "exhaustive",
        [
          Alcotest.test_case "domain-count invariant" `Quick
            test_exhaustive_domain_invariant;
          Alcotest.test_case "pruned+parallel equals unpruned sequential"
            `Quick test_exhaustive_best_matches_unpruned_sequential;
          Alcotest.test_case "agrees with plain exhaustive" `Quick
            test_exhaustive_best_agrees_with_exhaustive;
        ] );
      ( "bounds",
        List.map QCheck_alcotest.to_alcotest [ prop_bounds_admissible ] );
    ]
