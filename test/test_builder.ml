(* Tests for the Multiple-CE Builder: PE distribution, parallelism
   selection, tiling arithmetic and buffer allocation. *)

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let res50 = Cnn.Model_zoo.resnet50 ()
let mobv2 = Cnn.Model_zoo.mobilenet_v2 ()
let res50_table = Cnn.Table.of_model res50
let mobv2_table = Cnn.Table.of_model mobv2
let range first last = List.init (last - first + 1) (fun k -> first + k)

(* ---------------------------------------------------- Pe_allocation *)

let test_pe_distribute_sum () =
  let pes = Builder.Pe_allocation.distribute ~budget:900 ~workloads:[| 3; 1; 1 |] in
  check "spends budget" 900 (Array.fold_left ( + ) 0 pes);
  checkb "proportional" true (pes.(0) > pes.(1))

let test_pe_distribute_minimum () =
  let pes =
    Builder.Pe_allocation.distribute ~budget:10 ~workloads:[| 1000000; 0; 1 |]
  in
  Array.iter (fun p -> checkb "at least 1" true (p >= 1)) pes;
  check "sum" 10 (Array.fold_left ( + ) 0 pes)

let test_pe_distribute_equal () =
  let pes = Builder.Pe_allocation.distribute ~budget:9 ~workloads:[| 5; 5; 5 |] in
  Alcotest.(check (array int)) "equal thirds" [| 3; 3; 3 |] pes

let test_pe_distribute_invalid () =
  Alcotest.check_raises "budget too small"
    (Invalid_argument
       "Pe_allocation.distribute: budget 2 cannot give 3 engines a PE")
    (fun () ->
      ignore (Builder.Pe_allocation.distribute ~budget:2 ~workloads:[| 1; 1; 1 |]))

(* ------------------------------------------------ Parallelism_select *)

let test_smooth_degree () =
  check "900 is smooth" 900 (Builder.Parallelism_select.smooth_degree 900);
  check "899 -> 896" 896 (Builder.Parallelism_select.smooth_degree 899);
  check "1 -> 1" 1 (Builder.Parallelism_select.smooth_degree 1);
  (* 2521 is prime-ish; whatever comes back must be 7-smooth and <= n. *)
  let d = Builder.Parallelism_select.smooth_degree 2521 in
  checkb "<= n" true (d <= 2521);
  let rec strip n p = if n mod p = 0 then strip (n / p) p else n in
  check "7-smooth" 1 (strip (strip (strip (strip d 2) 3) 5) 7)

(* Trial division: [n] is 7-smooth iff dividing out 2, 3, 5 and 7
   leaves 1. *)
let is_smooth n =
  let rec strip n p = if n mod p = 0 then strip (n / p) p else n in
  n >= 1 && strip (strip (strip (strip n 2) 3) 5) 7 = 1

(* Overflow guard: near max_int an unguarded [v * p] wraps, and a
   generator built on it never stops.  Past the largest 7-smooth int
   [smooth_degree] saturates and [next_smooth_geq] clamps to it,
   because no larger 7-smooth number fits in an int. *)
let test_smooth_extremes () =
  let sd = Builder.Parallelism_select.smooth_degree in
  let ng = Builder.Parallelism_select.next_smooth_geq in
  let top = sd max_int in
  checkb "top is 7-smooth" true (is_smooth top);
  (* 2 * top would be a larger 7-smooth int if it fit. *)
  checkb "top > max_int / 2" true (top > max_int / 2);
  let half = sd (max_int / 2) in
  checkb "max_int / 2 -> 7-smooth" true (is_smooth half);
  checkb "max_int / 2 -> in (max_int / 4, max_int / 2]" true
    (half <= max_int / 2 && half > max_int / 4);
  check "boundary is a fixed point" top (sd top);
  check "next of boundary" top (ng top);
  checkb "below boundary" true (sd (top - 1) < top && is_smooth (sd (top - 1)));
  check "next just below boundary" top (ng (top - 1));
  check "past boundary saturates" top (sd (top + 1));
  check "next past boundary clamps" top (ng (top + 1));
  check "next of max_int clamps" top (ng max_int);
  let nh = ng (max_int / 2) in
  checkb "next of max_int / 2" true
    (is_smooth nh && nh >= max_int / 2 && nh <= top)

(* Both functions against the trial-division definition, on 1..200 000
   and on a window around 2^20, where the precomputed table ends and
   the overflow-safe fallback takes over. *)
let test_smooth_trial_division () =
  let check_range first last =
    let rec below n = if is_smooth n then n else below (n - 1) in
    let rec above n = if is_smooth n then n else above (n + 1) in
    let b = ref (below first) and a = ref (above first) in
    for n = first to last do
      if is_smooth n then b := n;
      if !a < n then a := above n;
      if Builder.Parallelism_select.smooth_degree n <> !b then
        Alcotest.failf "smooth_degree %d = %d, expected %d" n
          (Builder.Parallelism_select.smooth_degree n) !b;
      if Builder.Parallelism_select.next_smooth_geq n <> !a then
        Alcotest.failf "next_smooth_geq %d = %d, expected %d" n
          (Builder.Parallelism_select.next_smooth_geq n) !a
    done
  in
  check_range 1 200_000;
  check_range ((1 lsl 20) - 2_000) ((1 lsl 20) + 2_000)

(* The list-based parallelism search that [choose_indices] replaced,
   kept verbatim (minus its memo) as the reference the table-driven
   search must match bit for bit. *)
module Oracle = struct
  module P = Engine.Parallelism

  (* Ascending 7-smooth numbers up to [limit]. *)
  let smooth_upto limit =
    if limit < 1 then []
    else begin
      let acc = ref [] in
      let rec loop7 v = if v <= limit then (acc := v :: !acc; loop7 (v * 7)) in
      let rec loop5 v = if v <= limit then (loop7 v; loop5 (v * 5)) in
      let rec loop3 v = if v <= limit then (loop5 v; loop3 (v * 3)) in
      let rec loop2 v = if v <= limit then (loop3 v; loop2 (v * 2)) in
      loop2 1;
      List.sort_uniq compare !acc
    end

  let smooth_degree n =
    if n < 1 then 1 else List.fold_left max 1 (smooth_upto n)

  (* Smallest 7-smooth number >= n.  A power of two always lies in
     [n, 2n), so searching up to 2n suffices. *)
  let next_smooth_geq n =
    if n <= 1 then 1
    else List.find (fun s -> s >= n) (smooth_upto (2 * n))

  let solve ~pes ~channel_mode ~terms =
      let cd = Util.Int_math.ceil_div in
      let max_of sel = List.fold_left (fun a t -> max a (sel t)) 1 terms in
      let max1 = max_of (fun (d, _, _, _) -> d) in
      let maxh = max_of (fun (_, h, _, _) -> h) in
      let maxw = max_of (fun (_, _, w, _) -> w) in
      let cost d1 h w =
        List.fold_left
          (fun acc (e1, eh, ew, rest) ->
            acc + (rest * cd e1 d1 * cd eh h * cd ew w))
          0 terms
      in
      let best = ref (cost 1 1 1, 1, 1, 1) in
      let consider d1 h w =
        let c = cost d1 h w in
        let bc, bd, bh, _ = !best in
        if c < bc || (c = bc && (d1 > bd || (d1 = bd && h > bh))) then
          best := (c, d1, h, w)
      in
      List.iter
        (fun d1 ->
          let rem = pes / d1 in
          List.iter
            (fun h ->
              let w = smooth_degree (min (rem / h) (next_smooth_geq maxw)) in
              consider d1 h w)
            (smooth_upto (min rem (next_smooth_geq maxh))))
        (smooth_upto (min pes (next_smooth_geq max1)));
      let _, d1, h, w = !best in
      P.of_factors
        (if channel_mode then [ (P.Channels, d1); (P.Height, h); (P.Width, w) ]
         else [ (P.Filters, d1); (P.Height, h); (P.Width, w) ])

  (* Returns the unroll mode too, so callers can check both get covered. *)
  let choose_indices ~pes table indices =
    match indices with
    | [] -> (P.scalar, false)
    | _ ->
      let dw_macs, total_macs =
        List.fold_left
          (fun (dw, tot) i ->
            let m = Cnn.Table.macs table i in
            ((if Cnn.Table.is_depthwise table i then dw + m else dw), tot + m))
          (0, 0) indices
      in
      let channel_mode = 2 * dw_macs >= total_macs in
      (* Per layer: (first-dim extent, height, width, product of the
         un-unrolled extents). *)
      let terms =
        List.map
          (fun i ->
            let ef, ec, eh, ew, ekh, ekw = Cnn.Table.extents table i in
            let k2 = ekh * ekw in
            if channel_mode then (ec, eh, ew, ef * k2)
            else (ef, eh, ew, ec * k2))
          indices
      in
      (solve ~pes ~channel_mode ~terms, channel_mode)
end

let test_choose_degree_within_budget () =
  List.iter
    (fun pes ->
      let p =
        Builder.Parallelism_select.choose_indices ~pes res50_table (range 0 9)
      in
      checkb
        (Printf.sprintf "degree <= %d" pes)
        true
        (Engine.Parallelism.degree p <= pes))
    [ 1; 7; 64; 450; 900; 2520 ]

let test_choose_depthwise_uses_channels () =
  let dw_layers =
    List.filter
      (Cnn.Table.is_depthwise mobv2_table)
      (range 0 (Cnn.Model.num_layers mobv2 - 1))
  in
  let p =
    Builder.Parallelism_select.choose_indices ~pes:256 mobv2_table dw_layers
  in
  check "no filter unrolling" 1
    (Engine.Parallelism.factor p Engine.Parallelism.Filters);
  checkb "channels unrolled" true
    (Engine.Parallelism.factor p Engine.Parallelism.Channels > 1)

let test_choose_beats_naive () =
  (* The chosen strategy should be at least as good as a naive square
     strategy of the same budget. *)
  let layers = Cnn.Model.layers_in_range res50 ~first:10 ~last:30 in
  let pes = 512 in
  let chosen =
    Builder.Parallelism_select.choose_indices ~pes res50_table (range 10 30)
  in
  let naive = Engine.Parallelism.three_d ~filters:8 ~height:8 ~width:8 in
  let cycles p =
    let ce =
      Engine.Ce.v ~id:1 ~pes ~parallelism:p
        ~dataflow:Engine.Dataflow.Output_stationary
    in
    List.fold_left (fun a l -> a + Engine.Ce.layer_cycles ce l) 0 layers
  in
  checkb "chosen <= naive" true (cycles chosen <= cycles naive)

(* ----------------------------------------------------------- Tiling *)

let test_weight_tile () =
  let l = Cnn.Model.layer res50 10 in
  let ce =
    Engine.Ce.v ~id:1 ~pes:64
      ~parallelism:(Engine.Parallelism.three_d ~filters:16 ~height:2 ~width:2)
      ~dataflow:Engine.Dataflow.Output_stationary
  in
  let tile = Builder.Tiling.weight_tile_elements ce l in
  let total = Cnn.Layer.weight_elements l in
  checkb "tile <= total" true (tile <= total);
  checkb "tile >= filters share" true (tile * Cnn.Layer.loop_extent l `Filters >= total)

let test_fm_tile_rows () =
  let l = Cnn.Model.layer res50 0 in
  let o = Cnn.Layer.out_shape l in
  check "4 tiles" (Util.Int_math.ceil_div o.Cnn.Shape.height 4)
    (Builder.Tiling.tile_rows l ~tiles:4);
  check "tiles count" 4
    (Builder.Tiling.num_row_tiles l ~rows:(Builder.Tiling.tile_rows l ~tiles:4))

let test_ifm_rows_for_ofm_rows () =
  let l = Cnn.Model.layer res50 0 in
  (* stride 2, kernel 7: one OFM row needs 7 IFM rows. *)
  check "one row" 7 (Builder.Tiling.ifm_rows_for_ofm_rows l ~rows:1);
  check "two rows" 9 (Builder.Tiling.ifm_rows_for_ofm_rows l ~rows:2)

let test_producer_tile () =
  check "same counts" 3
    (Builder.Tiling.producer_tile ~producer_tiles:8 ~consumer_tiles:8 3);
  check "producer finer" 3
    (Builder.Tiling.producer_tile ~producer_tiles:8 ~consumer_tiles:4 1);
  check "producer coarser" 0
    (Builder.Tiling.producer_tile ~producer_tiles:2 ~consumer_tiles:8 1);
  check "clamped" 7
    (Builder.Tiling.producer_tile ~producer_tiles:8 ~consumer_tiles:4 3)

let test_min_fm_elements () =
  let l = Cnn.Model.layer res50 0 in
  let s = l.Cnn.Layer.in_shape and o = Cnn.Layer.out_shape l in
  checkb "min below full" true
    (Builder.Tiling.min_fm_elements l
    < Cnn.Shape.elements s + Cnn.Shape.elements o)

(* ------------------------------------------------------ Buffer_alloc *)

let built archi board = Builder.Build.build ~table:res50_table res50 board archi

let test_plan_fits_bram () =
  List.iter
    (fun board ->
      List.iter
        (fun (_, archi) ->
          let b = built archi board in
          let plan = b.Builder.Build.plan in
          if plan.Builder.Buffer_alloc.feasible then
            checkb "total <= BRAM" true
              (plan.Builder.Buffer_alloc.total_bytes
              <= board.Platform.Board.bram_bytes))
        (Arch.Baselines.all_instances res50))
    [ Platform.Board.zc706; Platform.Board.zcu102 ]

let test_plan_single_capacity_bounds () =
  let b = built (Arch.Baselines.segmented ~ces:4 res50) Platform.Board.zcu102 in
  Array.iter
    (fun bp ->
      match bp with
      | Builder.Buffer_alloc.Plan_single p ->
        checkb "capacity <= ideal" true
          (p.Builder.Buffer_alloc.fm_capacity_bytes
          <= p.Builder.Buffer_alloc.fm_ideal_bytes);
        checkb "positive staging" true
          (p.Builder.Buffer_alloc.weights_tile_bytes > 0)
      | Builder.Buffer_alloc.Plan_pipelined _ -> ())
    b.Builder.Build.plan.Builder.Buffer_alloc.block_plans

let test_plan_retention_on_big_board () =
  (* MobileNetV2's 4.4 MB of 16-bit weights fit ZCU102's BRAM: the
     allocator should retain the weights of every pipelined layer that
     would otherwise reload them (more than one tile).  Single-tile
     layers stream their weights exactly once either way. *)
  let b =
    Workload_helper.build mobv2 Platform.Board.zcu102
      (Arch.Baselines.segmented_rr ~ces:4 mobv2)
  in
  Array.iteri
    (fun bi bp ->
      match (bp, (Array.of_list b.Builder.Build.archi.Arch.Block.blocks).(bi)) with
      | Builder.Buffer_alloc.Plan_pipelined p, Arch.Block.Pipelined { first; _ } ->
        Array.iteri
          (fun i retained ->
            let layer = Cnn.Model.layer mobv2 (first + i) in
            let tiles =
              Builder.Tiling.num_row_tiles layer
                ~rows:p.Builder.Buffer_alloc.tile_rows.(i)
            in
            if tiles > 1 then checkb "multi-tile layer retained" true retained)
          p.Builder.Buffer_alloc.weights_retained
      | _ -> ())
    b.Builder.Build.plan.Builder.Buffer_alloc.block_plans

let test_plan_no_full_retention_on_small_board () =
  (* ResNet50's 47 MB of weights cannot fit ZC706's 2.4 MiB. *)
  let b = built (Arch.Baselines.segmented_rr ~ces:4 res50) Platform.Board.zc706 in
  Array.iter
    (fun bp ->
      match bp with
      | Builder.Buffer_alloc.Plan_pipelined p ->
        checkb "some streamed" true
          (Array.exists not p.Builder.Buffer_alloc.weights_retained)
      | Builder.Buffer_alloc.Plan_single _ -> ())
    b.Builder.Build.plan.Builder.Buffer_alloc.block_plans

let test_tile_rows_aligned () =
  let b = built (Arch.Baselines.segmented_rr ~ces:4 res50) Platform.Board.zcu102 in
  match
    (b.Builder.Build.blocks.(0),
     b.Builder.Build.plan.Builder.Buffer_alloc.block_plans.(0))
  with
  | ( Builder.Build.Built_pipelined { engines; first; _ },
      Builder.Buffer_alloc.Plan_pipelined p ) ->
    Array.iteri
      (fun i rows ->
        let layer = Cnn.Model.layer res50 (first + i) in
        let engine = engines.(i mod Array.length engines) in
        let par_h =
          Engine.Parallelism.factor engine.Engine.Ce.parallelism
            Engine.Parallelism.Height
        in
        let out_h = (Cnn.Layer.out_shape layer).Cnn.Shape.height in
        checkb "aligned or full" true (rows mod par_h = 0 || rows = out_h))
      p.Builder.Buffer_alloc.tile_rows
  | _ -> Alcotest.fail "expected pipelined block"

let test_audit_clean_on_baselines () =
  List.iter
    (fun board ->
      List.iter
        (fun (name, archi) ->
          let b = Builder.Build.build ~table:res50_table res50 board archi in
          match
            Builder.Buffer_alloc.audit res50 board archi b.Builder.Build.plan
          with
          | [] -> ()
          | problems ->
            Alcotest.failf "%s on %s: %s" name board.Platform.Board.name
              (String.concat "; " problems))
        (Arch.Baselines.all_instances res50))
    [ Platform.Board.zc706; Platform.Board.vcu110; Platform.Board.zcu102 ]

(* Every plan of the zoo baselines on every board, folded into one
   fingerprint recorded before the greedy passes stopped sorting lists
   of candidates.  Their tie-breaks (which retention candidate or FM
   grant goes first among equals) reach no end-to-end golden, so this
   pin is what catches a changed order. *)
let test_plans_pinned () =
  let module Fp = Util.Fingerprint in
  let fp_plan h (p : Builder.Buffer_alloc.t) =
    let h =
      Fp.array
        (fun h -> function
          | Builder.Buffer_alloc.Plan_single s ->
            Fp.int (Fp.int (Fp.int h s.weights_tile_bytes) s.fm_capacity_bytes)
              s.fm_ideal_bytes
          | Builder.Buffer_alloc.Plan_pipelined q ->
            let h = Fp.int (Fp.int h q.tiles_per_image) q.width_split in
            let h = Fp.array Fp.int h q.tile_rows in
            let h = Fp.array Fp.int h q.fm_tile_bytes in
            let h = Fp.array Fp.bool h q.weights_retained in
            Fp.int h q.weights_staging_bytes)
        h p.block_plans
    in
    let h = Fp.array Fp.bool h p.inter_seg_on_chip in
    let h = Fp.array Fp.int h p.inter_seg_bytes in
    Fp.bool (Fp.int h p.total_bytes) p.feasible
  in
  let h = ref Fp.empty and n = ref 0 in
  List.iter
    (fun model ->
      let table = Cnn.Table.of_model model in
      List.iter
        (fun board ->
          List.iter
            (fun ces ->
              List.iter
                (fun make ->
                  match make ~ces model with
                  | exception Invalid_argument _ -> ()
                  | archi ->
                    incr n;
                    h :=
                      fp_plan !h
                        (Builder.Build.build ~table model board archi)
                          .Builder.Build.plan)
                [ Arch.Baselines.segmented; Arch.Baselines.segmented_rr;
                  Arch.Baselines.hybrid ])
            [ 2; 3; 4; 5; 7; 9; 12 ])
        Platform.Board.all)
    (Cnn.Model_zoo.extended ());
  check "plans" 672 !n;
  Alcotest.(check string)
    "plan fingerprint" "3703c3cc29a5b05c"
    (Printf.sprintf "%x" (Fp.to_int !h))

let test_audit_flags_corruption () =
  let archi = Arch.Baselines.segmented ~ces:4 res50 in
  let b = Builder.Build.build ~table:res50_table res50 Platform.Board.zcu102 archi in
  let plan = b.Builder.Build.plan in
  let corrupted =
    { plan with Builder.Buffer_alloc.total_bytes = plan.Builder.Buffer_alloc.total_bytes + 1 }
  in
  checkb "corruption detected" true
    (Builder.Buffer_alloc.audit res50 Platform.Board.zcu102 archi corrupted
    <> [])

(* ------------------------------------------------------------ Build *)

let test_build_engine_budget () =
  List.iter
    (fun (_, archi) ->
      let b = built archi Platform.Board.vcu108 in
      let total =
        Array.fold_left (fun a e -> a + e.Engine.Ce.pes) 0 b.Builder.Build.engines
      in
      check "spends all DSPs" 768 total)
    (Arch.Baselines.all_instances res50)

let test_build_dataflows () =
  let b = built (Arch.Baselines.hybrid ~ces:4 res50) Platform.Board.vcu108 in
  (* First ces-1 engines are pipelined (WS); the last is single (OS). *)
  let n = Array.length b.Builder.Build.engines in
  Array.iteri
    (fun i e ->
      let expected =
        if i = n - 1 then Engine.Dataflow.Output_stationary
        else Engine.Dataflow.Weight_stationary
      in
      checkb "dataflow" true (e.Engine.Ce.dataflow = expected))
    b.Builder.Build.engines

let test_engine_for_layer () =
  let b = built (Arch.Baselines.hybrid ~ces:4 res50) Platform.Board.vcu108 in
  check "layer 0 on CE1" 1 (Builder.Build.engine_for_layer b 0).Engine.Ce.id;
  check "layer 1 on CE2" 2 (Builder.Build.engine_for_layer b 1).Engine.Ce.id;
  check "layer 10 on CE4" 4 (Builder.Build.engine_for_layer b 10).Engine.Ce.id

let test_workload_assignment () =
  let a = Workload_helper.assignment () in
  Alcotest.(check (list int)) "ce0" [ 0; 3; 6 ] a.(0);
  Alcotest.(check (list int)) "ce1" [ 1; 4 ] a.(1);
  Alcotest.(check (list int)) "ce2" [ 2; 5 ] a.(2)

(* ------------------------------------------------------- properties *)

let prop_pe_distribution =
  QCheck2.Test.make ~name:"PE distribution spends budget with floor 1"
    Generators.pe_budget_workloads
    (fun (budget, workloads) ->
      QCheck2.assume (budget >= Array.length workloads);
      let pes = Builder.Pe_allocation.distribute ~budget ~workloads in
      Array.fold_left ( + ) 0 pes = budget && Array.for_all (fun p -> p >= 1) pes)

(* The largest-remainder rule as a sort, the way [distribute] computed
   it before it ordered the remainders by insertion. *)
let distribute_by_sort ~budget ~workloads =
  let n = Array.length workloads in
  let total = Array.fold_left ( + ) 0 workloads in
  let weights = if total = 0 then Array.make n 1 else workloads in
  let wsum = Array.fold_left ( + ) 0 weights in
  let spare = budget - n in
  let extra = Array.map (fun w -> spare * w / wsum) weights in
  let leftover = spare - Array.fold_left ( + ) 0 extra in
  let remainder i = (spare * weights.(i)) - (extra.(i) * wsum) in
  let idx = Array.init n Fun.id in
  Array.sort
    (fun a b ->
      match compare (remainder b) (remainder a) with 0 -> compare a b | c -> c)
    idx;
  for k = 0 to leftover - 1 do
    extra.(idx.(k)) <- extra.(idx.(k)) + 1
  done;
  Array.map (fun e -> 1 + e) extra

(* Small, often repeated workloads, so that remainders tie. *)
let prop_distribute_matches_sort =
  QCheck2.Test.make ~count:500
    ~name:"distribute gives leftovers by remainder, ties to the lower index"
    QCheck2.Gen.(
      pair (int_range 0 60) (array_size (int_range 1 10) (int_range 0 4)))
    (fun (extra_budget, workloads) ->
      let budget = Array.length workloads + extra_budget in
      Builder.Pe_allocation.distribute ~budget ~workloads
      = distribute_by_sort ~budget ~workloads)

let prop_share_upper_bound =
  QCheck2.Test.make
    ~name:"distribute never exceeds share_upper_bound"
    Generators.pe_budget_workloads
    (fun (budget, workloads) ->
      QCheck2.assume (budget >= Array.length workloads);
      let engines = Array.length workloads in
      let total = Array.fold_left ( + ) 0 workloads in
      let pes = Builder.Pe_allocation.distribute ~budget ~workloads in
      let ok = ref true in
      Array.iteri
        (fun i p ->
          let ub =
            Builder.Pe_allocation.share_upper_bound ~budget ~engines
              ~workload:workloads.(i) ~total
          in
          if p > ub then ok := false)
        pes;
      !ok)

let prop_ifm_rows_monotone =
  QCheck2.Test.make ~name:"IFM rows monotone in OFM rows, never below kernel"
    QCheck2.Gen.(
      triple Generators.res50_layer_index (int_range 1 112) (int_range 1 112))
    (fun (li, r1, r2) ->
      let l = Cnn.Model.layer res50 li in
      let lo = min r1 r2 and hi = max r1 r2 in
      let a = Builder.Tiling.ifm_rows_for_ofm_rows l ~rows:lo in
      let b = Builder.Tiling.ifm_rows_for_ofm_rows l ~rows:hi in
      a <= b && a >= l.Cnn.Layer.kernel)

let prop_row_tiles_roundtrip =
  QCheck2.Test.make ~name:"tile_rows for n tiles never yields more than n"
    QCheck2.Gen.(pair Generators.res50_layer_index Generators.tile_count)
    (fun (li, n) ->
      let l = Cnn.Model.layer res50 li in
      Builder.Tiling.num_row_tiles l ~rows:(Builder.Tiling.tile_rows l ~tiles:n)
      <= n)

let prop_producer_tile_range =
  QCheck2.Test.make ~name:"producer tile stays in range"
    QCheck2.Gen.(
      triple (int_range 1 64) (int_range 1 64) (int_range 0 63))
    (fun (pt, ct, t) ->
      QCheck2.assume (t < ct);
      let p =
        Builder.Tiling.producer_tile ~producer_tiles:pt ~consumer_tiles:ct t
      in
      0 <= p && p < pt)

(* ------------------------------------------ search against the oracle *)

(* A search case: a table, a PE count and the layer indices of one
   engine. *)
type search_case = {
  label : string;
  table : Cnn.Table.t;
  pes : int;
  indices : int list;
}

let pp_case ppf c =
  Format.fprintf ppf "%s pes=%d indices=[%s]" c.label c.pes
    (String.concat ";" (List.map string_of_int c.indices))

(* A random contiguous layer range of [table] with pes in 1..6000.  One
   case in three keeps only the range's depthwise layers (when it has
   any), which puts the engine in channel mode. *)
let range_case (label, table) =
  let open QCheck2.Gen in
  let n = Cnn.Table.num_layers table in
  let* a = int_range 0 (n - 1) in
  let* b = int_range 0 (n - 1) in
  let* pes = int_range 1 6000 in
  let* depthwise_only = map (fun k -> k = 0) (int_bound 2) in
  let span = range (min a b) (max a b) in
  let dw = List.filter (Cnn.Table.is_depthwise table) span in
  let indices = if depthwise_only && dw <> [] then dw else span in
  return { label; table; pes; indices }

(* A random engine workload outside the zoo: 1-10 independent layers of
   every kind, then 1-12 indices into them, repeats and any order
   allowed. *)
let generated_case =
  let open QCheck2.Gen in
  let layer i =
    let* kind =
      oneofl
        Cnn.Layer.[ Standard; Standard; Depthwise; Pointwise; Fully_connected ]
    in
    let* channels = int_range 1 512 in
    let* height = int_range 1 64 in
    let* width = int_range 1 64 in
    let* out = int_range 1 512 in
    let* kernel = oneofl [ 1; 3; 5; 7 ] in
    let* stride = oneofl [ 1; 1; 2 ] in
    let kernel, height, width =
      match kind with
      | Cnn.Layer.Pointwise -> (1, height, width)
      | Cnn.Layer.Fully_connected -> (1, 1, 1)
      | _ -> (kernel, height, width)
    in
    let out_channels =
      match kind with Cnn.Layer.Depthwise -> channels | _ -> out
    in
    return
      (Cnn.Layer.v ~index:i ~name:(Printf.sprintf "g%d" i) ~kind
         ~in_shape:(Cnn.Shape.v ~channels ~height ~width)
         ~out_channels ~kernel ~stride ~padding:(kernel / 2) ())
  in
  let* n = int_range 1 10 in
  let* layers = flatten_l (List.init n layer) in
  let table =
    Cnn.Table.of_model
      (Cnn.Model.v ~name:"generated" ~abbreviation:"Gen" ~layers)
  in
  let* indices = list_size (int_range 1 12) (int_bound (n - 1)) in
  let* pes = int_range 1 6000 in
  return { label = "generated"; table; pes; indices }

(* One engine slot of a pipelined block: the builder hands slot [s]
   every [ces]-th layer of [first..last] ({!Builder.Workload}), which is
   not a contiguous range.  The PE count is random, or the cap
   [dsps - ces + 1] of a random board. *)
let slot_case (label, table) =
  let open QCheck2.Gen in
  let n = Cnn.Table.num_layers table in
  let* a = int_range 0 (n - 1) in
  let* b = int_range 0 (n - 1) in
  let first = min a b and last = max a b in
  let* ces = int_range 2 (max 2 (min 12 (last - first + 1))) in
  let* slot = int_bound (ces - 1) in
  let* pes =
    oneof
      [
        int_range 1 6000;
        map
          (fun board -> board.Platform.Board.dsps - ces + 1)
          (oneofl Platform.Board.all);
      ]
  in
  return
    { label = label ^ " slot"; table; pes;
      indices = Builder.Workload.slot_layers ~ces ~first ~last ~slot }

let matches_oracle modes c =
  let expected, channel_mode =
    Oracle.choose_indices ~pes:c.pes c.table c.indices
  in
  Hashtbl.replace modes channel_mode ();
  Engine.Parallelism.equal expected
    (Builder.Parallelism_select.choose_indices ~pes:c.pes c.table c.indices)

let test_search_matches_oracle () =
  let modes = Hashtbl.create 2 in
  List.iteri
    (fun k ((label, _) as t) ->
      Generators.check_prop ~name:("oracle on " ^ label) ~seed:(100 + k)
        ~count:40 (range_case t) (matches_oracle modes) pp_case)
    (Lazy.force Generators.zoo_tables);
  List.iteri
    (fun k ((label, _) as t) ->
      Generators.check_prop ~name:("oracle on pipelined slots of " ^ label)
        ~seed:(300 + k) ~count:25 (slot_case t) (matches_oracle modes) pp_case)
    (Lazy.force Generators.zoo_tables);
  (* At every board's cap for 4 engines, one slot of a 4-engine
     pipeline over each network's first 16 layers; the four boards
     cover the four slots. *)
  List.iteri
    (fun b board ->
      let pes = board.Platform.Board.dsps - 3 in
      List.iter
        (fun (label, table) ->
          let last = min 15 (Cnn.Table.num_layers table - 1) in
          let c =
            { label = Printf.sprintf "%s slot %d" label b; table; pes;
              indices =
                Builder.Workload.slot_layers ~ces:4 ~first:0 ~last
                  ~slot:(b mod 4) }
          in
          if not (matches_oracle modes c) then
            Alcotest.failf "oracle differs at the %s cap: %a"
              board.Platform.Board.name pp_case c)
        (Lazy.force Generators.zoo_tables))
    Platform.Board.all;
  Generators.check_prop ~name:"oracle on generated workloads" ~seed:7
    ~count:300 generated_case (matches_oracle modes) pp_case;
  checkb "filter mode covered" true (Hashtbl.mem modes false);
  checkb "channel mode covered" true (Hashtbl.mem modes true)

(* The choice depends only on the multiset of layer shapes: permuting
   the indices, swapping a layer for another layer of the same shape,
   or listing every layer twice (which doubles every candidate's cost)
   must not change it. *)
let test_search_shape_invariance () =
  let choose c = Builder.Parallelism_select.choose_indices ~pes:c.pes c.table in
  let shape table i =
    (Cnn.Table.extents table i, Cnn.Table.is_depthwise table i)
  in
  let invariant_case ((_, table) as t) =
    let open QCheck2.Gen in
    let* c = range_case t in
    let* permuted = shuffle_l c.indices in
    let twins i =
      List.filter
        (fun j -> shape table j = shape table i)
        (range 0 (Cnn.Table.num_layers table - 1))
    in
    let* swapped = flatten_l (List.map (fun i -> oneofl (twins i)) c.indices) in
    return (c, permuted, swapped)
  in
  let pp ppf (c, permuted, swapped) =
    let ints l = String.concat ";" (List.map string_of_int l) in
    Format.fprintf ppf "%a permuted=[%s] swapped=[%s]" pp_case c
      (ints permuted) (ints swapped)
  in
  List.iteri
    (fun k ((label, _) as t) ->
      Generators.check_prop ~name:("shape invariance on " ^ label)
        ~seed:(200 + k) ~count:40 (invariant_case t)
        (fun (c, permuted, swapped) ->
          let p = choose c c.indices in
          List.for_all
            (fun l -> Engine.Parallelism.equal p (choose c l))
            [ permuted; swapped; c.indices @ c.indices ])
        pp)
    (Lazy.force Generators.zoo_tables)

(* [cycle_floor] against brute force: the least Eq.-1 cycle count
   ({!Engine.Ce.layer_cycles_at}) over every integer (d1, h, w) with
   d1 * h * w <= pes, in both unroll modes, on a random layer whose
   extents are at most 64, with pes up to 256 and pes = 1 covered. *)
let test_cycle_floor_brute_force () =
  let brute ~pes table i =
    let best = ref max_int in
    for d1 = 1 to pes do
      for h = 1 to pes / d1 do
        for w = 1 to pes / (d1 * h) do
          List.iter
            (fun first ->
              let parallelism =
                Engine.Parallelism.of_factors
                  [ (first, d1); (Engine.Parallelism.Height, h);
                    (Engine.Parallelism.Width, w) ]
              in
              let ce =
                Engine.Ce.v ~id:1 ~pes ~parallelism
                  ~dataflow:Engine.Dataflow.Output_stationary
              in
              best := min !best (Engine.Ce.layer_cycles_at ce table i))
            [ Engine.Parallelism.Filters; Engine.Parallelism.Channels ]
        done
      done
    done;
    !best
  in
  let case =
    let open QCheck2.Gen in
    let* kind = oneofl Cnn.Layer.[ Standard; Standard; Depthwise; Pointwise ] in
    let* channels = int_range 1 64 in
    let* size = int_range 1 64 in
    let* width = int_range 1 64 in
    let* out = int_range 1 64 in
    let* kernel =
      match kind with
      | Cnn.Layer.Pointwise -> return 1
      | _ -> oneofl [ 1; 3; 5; 7 ]
    in
    let* pes = oneof [ return 1; int_range 1 256 ] in
    let out_channels =
      match kind with Cnn.Layer.Depthwise -> channels | _ -> out
    in
    let layer =
      Cnn.Layer.v ~index:0 ~name:"l0" ~kind
        ~in_shape:(Cnn.Shape.v ~channels ~height:size ~width)
        ~out_channels ~kernel ~stride:1 ~padding:(kernel / 2) ()
    in
    return
      ( Cnn.Table.of_model
          (Cnn.Model.v ~name:"one" ~abbreviation:"One" ~layers:[ layer ]),
        pes )
  in
  let pp ppf (table, pes) =
    let f, c, h, w, kh, kw = Cnn.Table.extents table 0 in
    Format.fprintf ppf "pes=%d extents=(%d,%d,%d,%d,%d,%d)" pes f c h w kh kw
  in
  Generators.check_prop ~name:"cycle_floor = brute force" ~seed:11 ~count:300
    case
    (fun (table, pes) ->
      Builder.Parallelism_select.cycle_floor ~pes table 0 = brute ~pes table 0)
    pp

let properties =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_pe_distribution; prop_distribute_matches_sort;
      prop_share_upper_bound; prop_ifm_rows_monotone;
      prop_row_tiles_roundtrip; prop_producer_tile_range;
    ]

let () =
  Alcotest.run "builder"
    [
      ( "pe_allocation",
        [
          Alcotest.test_case "sum" `Quick test_pe_distribute_sum;
          Alcotest.test_case "minimum" `Quick test_pe_distribute_minimum;
          Alcotest.test_case "equal" `Quick test_pe_distribute_equal;
          Alcotest.test_case "invalid" `Quick test_pe_distribute_invalid;
        ] );
      ( "parallelism_select",
        [
          Alcotest.test_case "smooth degree" `Quick test_smooth_degree;
          Alcotest.test_case "smooth extremes" `Quick test_smooth_extremes;
          Alcotest.test_case "smooth trial division" `Quick
            test_smooth_trial_division;
          Alcotest.test_case "search matches oracle" `Quick
            test_search_matches_oracle;
          Alcotest.test_case "search shape invariance" `Quick
            test_search_shape_invariance;
          Alcotest.test_case "cycle floor brute force" `Quick
            test_cycle_floor_brute_force;
          Alcotest.test_case "degree within budget" `Quick
            test_choose_degree_within_budget;
          Alcotest.test_case "depthwise channels" `Quick
            test_choose_depthwise_uses_channels;
          Alcotest.test_case "beats naive" `Quick test_choose_beats_naive;
        ] );
      ( "tiling",
        [
          Alcotest.test_case "weight tile" `Quick test_weight_tile;
          Alcotest.test_case "fm tile rows" `Quick test_fm_tile_rows;
          Alcotest.test_case "ifm rows" `Quick test_ifm_rows_for_ofm_rows;
          Alcotest.test_case "producer tile" `Quick test_producer_tile;
          Alcotest.test_case "min fm" `Quick test_min_fm_elements;
        ] );
      ( "buffer_alloc",
        [
          Alcotest.test_case "fits BRAM" `Quick test_plan_fits_bram;
          Alcotest.test_case "single capacity bounds" `Quick
            test_plan_single_capacity_bounds;
          Alcotest.test_case "retention big board" `Quick
            test_plan_retention_on_big_board;
          Alcotest.test_case "no full retention small board" `Quick
            test_plan_no_full_retention_on_small_board;
          Alcotest.test_case "tile rows aligned" `Quick test_tile_rows_aligned;
          Alcotest.test_case "audit clean" `Slow test_audit_clean_on_baselines;
          Alcotest.test_case "audit flags corruption" `Quick
            test_audit_flags_corruption;
          Alcotest.test_case "plans pinned" `Quick test_plans_pinned;
        ] );
      ( "build",
        [
          Alcotest.test_case "engine budget" `Quick test_build_engine_budget;
          Alcotest.test_case "dataflows" `Quick test_build_dataflows;
          Alcotest.test_case "engine for layer" `Quick test_engine_for_layer;
          Alcotest.test_case "workload assignment" `Quick test_workload_assignment;
        ] );
      ("properties", properties);
    ]
