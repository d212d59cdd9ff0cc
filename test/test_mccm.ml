(* Tests for the analytical cost model: the block models (Eq. 1-7), their
   composition (Eq. 8-9) and the metric/breakdown plumbing. *)

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checkf = Alcotest.(check (float 1e-9))

let res50 = Cnn.Model_zoo.resnet50 ()
let res50_table = Cnn.Table.of_model res50
let mobv2 = Cnn.Model_zoo.mobilenet_v2 ()

(* ----------------------------------------------------------- Access *)

let test_access_arithmetic () =
  let a = Mccm.Access.add (Mccm.Access.weights 10) (Mccm.Access.fms 5) in
  check "total" 15 (Mccm.Access.total a);
  check "weights" 10 a.Mccm.Access.weights_bytes;
  check "fms" 5 a.Mccm.Access.fms_bytes;
  check "sum" 30 (Mccm.Access.total (Mccm.Access.sum [ a; a ]))

(* ---------------------------------------------------------- Metrics *)

let metrics ?(latency = 1.0) ?(throughput = 1.0) ?(buffers = 100)
    ?(accesses = 100) ?(feasible = true) () =
  {
    Mccm.Metrics.latency_s = latency;
    throughput_ips = throughput;
    buffer_bytes = buffers;
    accesses = Mccm.Access.weights accesses;
    feasible;
  }

let test_metrics_better () =
  checkb "lower latency wins" true
    (Mccm.Metrics.better ~metric:`Latency (metrics ~latency:0.5 ())
       (metrics ~latency:1.0 ()));
  checkb "higher throughput wins" true
    (Mccm.Metrics.better ~metric:`Throughput (metrics ~throughput:2.0 ())
       (metrics ~throughput:1.0 ()));
  checkb "feasible beats infeasible" true
    (Mccm.Metrics.better ~metric:`Latency (metrics ~latency:9.0 ())
       (metrics ~latency:0.1 ~feasible:false ()))

(* --------------------------------------------------- Single_ce_model *)

let single_block_setup ~fm_capacity_mib =
  let board = Platform.Board.zcu102 in
  let engine =
    Engine.Ce.v ~id:1 ~pes:512
      ~parallelism:
        (Builder.Parallelism_select.choose_indices ~pes:512 res50_table
           (List.init 10 Fun.id))
      ~dataflow:Engine.Dataflow.Output_stationary
  in
  let plan =
    {
      Builder.Buffer_alloc.weights_tile_bytes = 128 * 1024;
      fm_capacity_bytes = Util.Units.bytes_of_mib fm_capacity_mib;
      fm_ideal_bytes = Util.Units.bytes_of_mib 8.0;
    }
  in
  (board, engine, plan)

let eval_single ~fm_capacity_mib =
  let board, engine, plan = single_block_setup ~fm_capacity_mib in
  Mccm.Single_ce_model.evaluate ~table:res50_table ~board ~engine ~plan ~first:0
    ~last:9 ~input_on_chip:false ~output_on_chip:false ()

let test_single_ideal_accesses () =
  (* With FMs fully buffered, accesses = weights + input + output. *)
  let r = eval_single ~fm_capacity_mib:8.0 in
  let bpe = 2 in
  let weights = Cnn.Model.weights_in_range res50 ~first:0 ~last:9 * bpe in
  let input = Cnn.Layer.ifm_elements (Cnn.Model.layer res50 0) * bpe in
  let output = Cnn.Layer.ofm_elements (Cnn.Model.layer res50 9) * bpe in
  check "weights exact" weights
    r.Mccm.Single_ce_model.accesses.Mccm.Access.weights_bytes;
  check "fms = boundary only" (input + output)
    r.Mccm.Single_ce_model.accesses.Mccm.Access.fms_bytes

let test_single_spill_monotone () =
  (* Shrinking the FM capacity can only increase accesses. *)
  let caps = [ 8.0; 2.0; 1.0; 0.5; 0.25 ] in
  let totals =
    List.map
      (fun c ->
        Mccm.Access.total
          (eval_single ~fm_capacity_mib:c).Mccm.Single_ce_model.accesses)
      caps
  in
  let rec monotone = function
    | a :: (b :: _ as rest) -> a <= b && monotone rest
    | _ -> true
  in
  checkb "monotone non-decreasing" true (monotone totals)

let test_single_latency_is_per_layer_max () =
  let r = eval_single ~fm_capacity_mib:8.0 in
  checkb "latency >= compute" true
    (r.Mccm.Single_ce_model.latency_s
    >= r.Mccm.Single_ce_model.compute_s -. 1e-12);
  checkb "latency <= compute + memory" true
    (r.Mccm.Single_ce_model.latency_s
    <= r.Mccm.Single_ce_model.compute_s +. r.Mccm.Single_ce_model.memory_s
       +. 1e-12)

let test_single_interseg_input () =
  (* Declaring the input on-chip removes the input load. *)
  let board, engine, plan = single_block_setup ~fm_capacity_mib:8.0 in
  let off =
    Mccm.Single_ce_model.evaluate ~table:res50_table ~board ~engine ~plan ~first:0
      ~last:9 ~input_on_chip:false ~output_on_chip:false ()
  in
  let on =
    Mccm.Single_ce_model.evaluate ~table:res50_table ~board ~engine ~plan ~first:0
      ~last:9 ~input_on_chip:true ~output_on_chip:false ()
  in
  let bpe = 2 in
  check "saves exactly the input"
    (Cnn.Layer.ifm_elements (Cnn.Model.layer res50 0) * bpe)
    (Mccm.Access.total off.Mccm.Single_ce_model.accesses
    - Mccm.Access.total on.Mccm.Single_ce_model.accesses)

(* A hand-computed Eq. 6 miniature: one 1x1 conv, 16-bit elements.
   IFM 8x4x4 = 128 elems = 256 B; OFM 4x4x4 = 64 elems = 128 B;
   weights 4x8 = 32 elems = 64 B. *)
let miniature_layer () =
  Cnn.Layer.v ~index:0 ~name:"mini" ~kind:Cnn.Layer.Pointwise
    ~in_shape:(Cnn.Shape.v ~channels:8 ~height:4 ~width:4)
    ~out_channels:4 ~kernel:1 ~stride:1 ~padding:0 ()

let miniature_model () =
  Cnn.Model.v ~name:"Mini" ~abbreviation:"Mini" ~layers:[ miniature_layer () ]

let eval_miniature ~cap_bytes ~input_on_chip =
  let model = miniature_model () in
  let board = Platform.Board.zcu102 in
  let engine =
    Engine.Ce.v ~id:1 ~pes:4
      ~parallelism:(Engine.Parallelism.three_d ~filters:4 ~height:1 ~width:1)
      ~dataflow:Engine.Dataflow.Output_stationary
  in
  let plan =
    {
      Builder.Buffer_alloc.weights_tile_bytes = 16;
      fm_capacity_bytes = cap_bytes;
      fm_ideal_bytes = 384;
    }
  in
  Mccm.Single_ce_model.evaluate ~table:(Cnn.Table.of_model model) ~board
    ~engine ~plan ~first:0 ~last:0 ~input_on_chip ~output_on_chip:false ()

let test_eq6_miniature_fits () =
  (* cap 384 B holds IFM+OFM: accesses = W + IFM load + OFM store
     = 64 + 256 + 128. *)
  let r = eval_miniature ~cap_bytes:384 ~input_on_chip:false in
  check "ideal" (64 + 256 + 128)
    (Mccm.Access.total r.Mccm.Single_ce_model.accesses)

let test_eq6_miniature_ifm_streams () =
  (* cap 160 B: IFM (256) cannot fit; OFM (128) + one-row IFM band
     (1 row x 4 wide x 8 ch x 2 B = 64 B) does not fit either within 160
     after reserving OFM... OFM 128 + band 64 = 192 > 160, so the OFM
     streams out too.  avail = 160.  Option 1 (local IS):
     W x ceil(256/160) + 256 = 128 + 256 = 384.  Option 2 (local WS):
     256 x ceil(64/160) + 64 = 256 + 64 = 320 -> option 2 wins.
     Total = OFM 128 + 320 = 448. *)
  let r = eval_miniature ~cap_bytes:160 ~input_on_chip:false in
  check "streaming accesses" 448
    (Mccm.Access.total r.Mccm.Single_ce_model.accesses)

let test_eq6_miniature_interseg_input () =
  (* Input arriving through an on-chip inter-segment buffer costs no IFM
     load; OFM still mandatorily stores (last block). *)
  let r = eval_miniature ~cap_bytes:384 ~input_on_chip:true in
  check "no input load" (64 + 128)
    (Mccm.Access.total r.Mccm.Single_ce_model.accesses)

(* Eq. 8/9 composition miniature: the same two-layer model evaluated as
   Segmented/2; toggling the inter-segment buffer trades 2 x boundary
   bytes of traffic for 2 x boundary bytes of buffer. *)
let test_eq9_interseg_tradeoff () =
  let model = Cnn.Model_zoo.mobilenet_v2 () in
  let archi = Arch.Baselines.segmented ~ces:2 model in
  let board_small =
    Platform.Board.v ~name:"small" ~dsps:256 ~bram_mib:0.35
      ~bandwidth_gb_per_sec:3.2 ()
  in
  let board_big =
    Platform.Board.v ~name:"big" ~dsps:256 ~bram_mib:16.0
      ~bandwidth_gb_per_sec:3.2 ()
  in
  let small = Mccm.Evaluate.metrics model board_small archi in
  let big = Mccm.Evaluate.metrics model board_big archi in
  QCheck2.assume small.Mccm.Metrics.feasible;
  checkb "plentiful BRAM never accesses more" true
    (Mccm.Metrics.accesses_bytes big <= Mccm.Metrics.accesses_bytes small)

(* ------------------------------------------- Single_ce_model oracle *)

(* The list-building single-CE DP the allocation-free evaluator
   replaced, kept verbatim as its oracle: per-layer candidate lists,
   [Access.t] totals and a trace list per state. *)
module Oracle = struct
  module Access = Mccm.Access

  type layer_result = Mccm.Single_ce_model.layer_result = {
    layer_index : int;
    compute_cycles : int;
    accesses : Access.t;
    ifm_on_chip : bool;
    ofm_stays_on_chip : bool;
  }

  type result = {
    layers : layer_result list;
    compute_cycles : int;
    accesses : Access.t;
    compute_s : float;
    memory_s : float;
    latency_s : float;
    utilization : float;
  }

  type validity = { mutable lo : int; mutable hi : int }

  (* Outcome-preserving threshold test: [t <= cap], narrowing [v] to the
     capacities that decide the same way. *)
  let le_cap v cap t =
    if t <= cap then begin
      if t > v.lo then v.lo <- t;
      true
    end
    else begin
      if t - 1 < v.hi then v.hi <- t - 1;
      false
    end

  (* Value-preserving [ceil_div x avail] for [avail = max 1 (cap - reserved)]:
     narrows [v] to the capacities producing the same quotient. *)
  let cd_window v cap ~reserved x =
    let avail = max 1 (cap - reserved) in
    if cap - reserved < 1 then begin
      (* Clamp active: any capacity <= reserved gives the same window. *)
      if reserved < v.hi then v.hi <- reserved
    end
    else begin
      if reserved + 1 > v.lo then v.lo <- reserved + 1;
      if x > 0 then begin
        let n = Util.Int_math.ceil_div x avail in
        let alo = Util.Int_math.ceil_div x n in
        if reserved + alo > v.lo then v.lo <- reserved + alo;
        if n > 1 then begin
          let ahi = (x - 1) / (n - 1) in
          if reserved + ahi < v.hi then v.hi <- reserved + ahi
        end
      end
    end;
    Util.Int_math.ceil_div x avail

  (* Eq. 6 for one layer, as a set of legal buffering decisions rather
     than a single greedy pick.  Each candidate is [(accesses, stays)]:
     the off-chip traffic the decision costs and whether it leaves the
     OFM resident for the next layer.  [ifm_in_cap] is true when the IFM
     occupies this block's FM capacity (it was produced by the previous
     layer); when the IFM sits in an inter-segment buffer it is on-chip
     but costs no capacity.  [ofm_to_interseg] frees the OFM from the
     capacity and forbids spilling it. *)
  let layer_candidates ~validity ~plan ~w ~ifm ~ofm ~extra ~band ~ifm_on_chip
      ~ifm_in_cap ~ofm_to_interseg =
    let cap = plan.Builder.Buffer_alloc.fm_capacity_bytes in
    let le_cap t = le_cap validity cap t in
    let ifm_cap_bytes = if ifm_in_cap then ifm else 0 in
    let ofm_cap_bytes = if ofm_to_interseg then 0 else ofm in
    (* A resident shortcut stays on-chip only while everything fits; when a
       layer spills, the shortcut spills too, at roughly one pass of its
       bytes per carrying layer (a residual chain of two carrying layers
       pays its store once and its reload once). *)
    let extra_spill = Access.fms extra in
    let cands = ref [] in
    let add acc stays = cands := (acc, stays) :: !cands in
    if ifm_on_chip then begin
      if le_cap (ifm_cap_bytes + ofm_cap_bytes + extra) then begin
        (* Ideal case: one access per weight. *)
        add (Access.weights w) true;
        (* Voluntarily spilling the OFM can still pay off when the next
           layer would otherwise be squeezed out of its capacity. *)
        if not ofm_to_interseg then
          add (Access.add (Access.weights w) (Access.fms ofm)) false
      end
      else begin
        (* Keep the OFM resident by evicting the shortcut instead. *)
        if extra > 0 && le_cap (ifm_cap_bytes + ofm_cap_bytes) then
          add (Access.add (Access.weights w) extra_spill) true;
        (* IFM is resident but the OFM cannot stay: stream it out.  The
           shortcut only spills if it no longer fits beside the IFM. *)
        let es =
          if le_cap (ifm_cap_bytes + extra) then Access.zero else extra_spill
        in
        add
          (Access.add
             (Access.add (Access.weights w) es)
             (if ofm_to_interseg then Access.zero else Access.fms ofm))
          ofm_to_interseg
      end
    end
    else begin
      (* IFM off-chip; [band] is the one-OFM-row IFM streaming band. *)
      let ifm_band = band in
      if le_cap (ifm + ofm_cap_bytes + extra) then begin
        (* Load the IFM once; everything is buffered afterwards. *)
        add (Access.add (Access.weights w) (Access.fms ifm)) true;
        if not ofm_to_interseg then
          add (Access.add (Access.weights w) (Access.fms (ifm + ofm))) false
      end
      else begin
        if extra > 0 && le_cap (ifm + ofm_cap_bytes) then
          add
            (Access.add (Access.weights w)
               (Access.add (Access.fms ifm) extra_spill))
            true;
        (* Streaming regime: charge the cheaper of Eq. 6's two options
           under each feasible reservation of the capacity. *)
        let stream ~extra_kept ~keep_ofm =
          let extra_reserved = if extra_kept then extra else 0 in
          let es = if extra_kept then Access.zero else extra_spill in
          let reserved = extra_reserved + if keep_ofm then ofm else 0 in
          (* Option 1 — OS, locally input-stationary: each IFM chunk is
             loaded once and the weights re-streamed per chunk. *)
          let opt1_w = w * cd_window validity cap ~reserved ifm in
          let opt1_fm = ifm in
          (* Option 2 — OS, locally weight-stationary: each weight chunk is
             loaded once and the IFM re-streamed per chunk. *)
          let opt2_w = w in
          let opt2_fm = ifm * cd_window validity cap ~reserved w in
          let w_acc, ifm_acc =
            if opt1_w + opt1_fm <= opt2_w + opt2_fm then (opt1_w, opt1_fm)
            else (opt2_w, opt2_fm)
          in
          let ofm_acc = if keep_ofm || ofm_to_interseg then 0 else ofm in
          add
            (Access.add es
               (Access.add (Access.weights w_acc) (Access.fms (ifm_acc + ofm_acc))))
            (keep_ofm || ofm_to_interseg)
        in
        let extra_fits = le_cap (extra + ofm_cap_bytes + ifm_band) in
        let keep_fits ~extra_reserved =
          (not ofm_to_interseg) && le_cap (ofm + extra_reserved + ifm_band)
        in
        stream ~extra_kept:false ~keep_ofm:false;
        if extra_fits then stream ~extra_kept:true ~keep_ofm:false;
        if keep_fits ~extra_reserved:0 then stream ~extra_kept:false ~keep_ofm:true;
        if extra_fits && keep_fits ~extra_reserved:extra then
          stream ~extra_kept:true ~keep_ofm:true
      end
    end;
    List.rev !cands

  let evaluate_with_validity ~table ~board ~engine ~plan ~first ~last
      ~input_on_chip ~output_on_chip () =
    let bpe = board.Platform.Board.bytes_per_element in
    let validity = { lo = 0; hi = max_int } in
    (* Per-layer scalar view, in bytes: (weights, ifm, ofm, extra,
       one-row IFM band, Eq.-1 cycles). *)
    let view i =
      ( Cnn.Table.weight_elements table i * bpe,
        Cnn.Table.ifm_elements table i * bpe,
        Cnn.Table.ofm_elements table i * bpe,
        Cnn.Table.extra_resident_elements table i * bpe,
        Cnn.Table.band1_elements table i * bpe,
        Engine.Ce.layer_cycles_at engine table i )
    in
    (* Two-state DP over the layer chain: a state is whether the layer's
       IFM is resident in the block's FM capacity.  Charging the cheapest
       chain (not a per-layer greedy) keeps the modelled traffic monotone
       in the capacity: a keep-the-OFM decision that squeezes a later
       layer's streaming window is outbid by the spill chain. *)
    let better a b =
      match (a, b) with
      | None, x | x, None -> x
      | Some (ta, _), Some (tb, _) ->
        if Access.total ta <= Access.total tb then a else b
    in
    let step i states =
      let w, ifm, ofm, extra, band, compute_cycles = view i in
      let is_last = i = last in
      let ofm_to_interseg = is_last && output_on_chip in
      let next = [| None; None |] in
      List.iter
        (fun (ifm_on_chip, ifm_in_cap, state) ->
          match state with
          | None -> ()
          | Some (total, trace) ->
            List.iter
              (fun (accesses, stays) ->
                (* A last layer writing off-chip does not leave its OFM for
                   anyone. *)
                let accesses =
                  if is_last && (not output_on_chip) && stays then
                    Access.add accesses (Access.fms ofm)
                  else accesses
                in
                let r =
                  {
                    layer_index = i;
                    compute_cycles;
                    accesses;
                    ifm_on_chip;
                    ofm_stays_on_chip = stays;
                  }
                in
                let j = if stays then 1 else 0 in
                next.(j) <-
                  better next.(j) (Some (Access.add total accesses, r :: trace)))
              (layer_candidates ~validity ~plan ~w ~ifm ~ofm ~extra ~band
                 ~ifm_on_chip ~ifm_in_cap ~ofm_to_interseg))
        states;
      next
    in
    (* The block input arrives either off-chip or through an inter-segment
       buffer: on-chip but outside the capacity. *)
    let after_first =
      step first
        [ (input_on_chip, false, Some (Access.zero, [])) ]
    in
    let final =
      let rec loop i states =
        if i > last then states
        else
          loop (i + 1)
            (step i [ (false, true, states.(0)); (true, true, states.(1)) ])
      in
      loop (first + 1) after_first
    in
    let layers =
      match better final.(0) final.(1) with
      | Some (_, trace) -> List.rev trace
      | None -> assert false (* every layer contributes >= 1 candidate *)
    in
    let compute_cycles =
      List.fold_left (fun a (r : layer_result) -> a + r.compute_cycles) 0 layers
    in
    let accesses =
      Access.sum (List.map (fun (r : layer_result) -> r.accesses) layers)
    in
    let compute_s = Platform.Board.cycles_to_seconds board compute_cycles in
    let memory_s = Platform.Board.bytes_to_seconds board (Access.total accesses) in
    (* Per-layer overlap of compute and transfer (double-buffered streams). *)
    let latency_s =
      List.fold_left
        (fun acc (r : layer_result) ->
          let c = Platform.Board.cycles_to_seconds board r.compute_cycles in
          let m =
            Platform.Board.bytes_to_seconds board (Access.total r.accesses)
          in
          acc +. Float.max c m)
        0.0 layers
    in
    let utilization = Engine.Ce.average_utilization_at engine table ~first ~last in
    ( { layers; compute_cycles; accesses; compute_s; memory_s; latency_s;
        utilization },
      (validity.lo, validity.hi) )
end

(* One single-CE block: everything the model reads, plus a random
   capacity of up to 16 MiB to evaluate it at besides its plan's own. *)
type single_case = {
  label : string;
  table : Cnn.Table.t;
  board : Platform.Board.t;
  engine : Engine.Ce.t;
  first : int;
  last : int;
  plan : Builder.Buffer_alloc.single_plan;
  random_cap : int;
}

let pp_single_case ppf c =
  Format.fprintf ppf "%s on %s, L%d-L%d, %a, cap %d (random %d)" c.label
    c.board.Platform.Board.name (c.first + 1) (c.last + 1) Engine.Ce.pp
    c.engine c.plan.Builder.Buffer_alloc.fm_capacity_bytes c.random_cap

let sixteen_mib = 16 * 1024 * 1024

(* A single-CE block of a built random design: its engine and buffer
   plan come from the builder, so its capacity is a planner grant. *)
let built_single_case (label, table) =
  let open QCheck2.Gen in
  let model = Cnn.Table.model table in
  let num_layers = Cnn.Model.num_layers model in
  let* board = oneofl Platform.Board.all in
  let* spec = Generators.custom_spec ~num_layers in
  let* pick = int_bound 1000 in
  let* random_cap = int_bound sixteen_mib in
  let built =
    Builder.Build.build ~table model board (Arch.Custom.arch_of_spec model spec)
  in
  let singles =
    List.filter_map
      (fun (block, plan) ->
        match (block, plan) with
        | ( Builder.Build.Built_single { engine; first; last },
            Builder.Buffer_alloc.Plan_single plan ) ->
          Some (engine, first, last, plan)
        | _ -> None)
      (List.combine
         (Array.to_list built.Builder.Build.blocks)
         (Array.to_list
            built.Builder.Build.plan.Builder.Buffer_alloc.block_plans))
  in
  let engine, first, last, plan =
    List.nth singles (pick mod List.length singles)
  in
  return { label; table; board; engine; first; last; plan; random_cap }

(* A random layer range of [table] on an engine of 1-3000 PEs, with the
   parallelism the builder would choose for it and a random capacity. *)
let range_single_case (label, table) =
  let open QCheck2.Gen in
  let n = Cnn.Table.num_layers table in
  let* a = int_bound (n - 1) in
  let* b = int_bound (n - 1) in
  let* pes = int_range 1 3000 in
  let* board = oneofl Platform.Board.all in
  let* dataflow =
    oneofl
      Engine.Dataflow.
        [ Weight_stationary; Output_stationary; Input_stationary ]
  in
  let* cap = int_bound sixteen_mib in
  let* random_cap = int_bound sixteen_mib in
  let first = min a b and last = max a b in
  let engine =
    Engine.Ce.v ~id:1 ~pes
      ~parallelism:
        (Builder.Parallelism_select.choose_indices ~pes table
           (List.init (last - first + 1) (fun k -> first + k)))
      ~dataflow
  in
  let plan =
    {
      Builder.Buffer_alloc.weights_tile_bytes = 0;
      fm_capacity_bytes = cap;
      fm_ideal_bytes = 0;
    }
  in
  return { label; table; board; engine; first; last; plan; random_cap }

let single_case_gens () =
  let zoo = Lazy.force Generators.zoo_tables in
  let ranges =
    List.filter (fun (label, _) -> label = "Res152" || label = "MobV2") zoo
  in
  List.map (fun t -> ("built " ^ fst t, built_single_case t)) zoo
  @ List.map (fun t -> ("range " ^ fst t, range_single_case t)) ranges

let flag_pairs = [ (false, false); (false, true); (true, false); (true, true) ]

let case_caps c =
  let own = c.plan.Builder.Buffer_alloc.fm_capacity_bytes in
  [ own; 0; 1; own / 3; c.random_cap ]

let eval_case c ~cap ~input_on_chip ~output_on_chip =
  Mccm.Single_ce_model.evaluate_with_validity ~table:c.table ~board:c.board
    ~engine:c.engine
    ~plan:{ c.plan with Builder.Buffer_alloc.fm_capacity_bytes = cap }
    ~first:c.first ~last:c.last ~input_on_chip ~output_on_chip ()

let same_float a b =
  Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_result (a : Mccm.Single_ce_model.result)
    (b : Mccm.Single_ce_model.result) =
  a.compute_cycles = b.compute_cycles
  && a.accesses = b.accesses
  && same_float a.compute_s b.compute_s
  && same_float a.memory_s b.memory_s
  && same_float a.latency_s b.latency_s
  && same_float a.utilization b.utilization

let matches_oracle c =
  List.for_all
    (fun (input_on_chip, output_on_chip) ->
      List.for_all
        (fun cap ->
          let plan =
            { c.plan with Builder.Buffer_alloc.fm_capacity_bytes = cap }
          in
          let o, o_validity =
            Oracle.evaluate_with_validity ~table:c.table ~board:c.board
              ~engine:c.engine ~plan ~first:c.first ~last:c.last
              ~input_on_chip ~output_on_chip ()
          in
          let r, validity = eval_case c ~cap ~input_on_chip ~output_on_chip in
          let layers =
            Mccm.Single_ce_model.layers ~table:c.table ~board:c.board
              ~engine:c.engine ~plan ~first:c.first ~last:c.last
              ~input_on_chip ~output_on_chip ()
          in
          validity = o_validity
          && same_result r
               {
                 compute_cycles = o.compute_cycles;
                 accesses = o.accesses;
                 compute_s = o.compute_s;
                 memory_s = o.memory_s;
                 latency_s = o.latency_s;
                 utilization = o.utilization;
               }
          && layers = o.layers)
        (case_caps c))
    flag_pairs

(* [prop] on 25 seeded cases of every case generator. *)
let check_single_cases ~name ~seed prop =
  List.iteri
    (fun k (label, gen) ->
      Generators.check_prop ~name:(name ^ " on " ^ label) ~seed:(seed + k)
        ~count:25 gen prop pp_single_case)
    (single_case_gens ())

let test_single_matches_oracle () =
  check_single_cases ~name:"oracle" ~seed:300 matches_oracle

(* The validity interval: every capacity in it, its two ends included,
   must give a bit-identical result — and the same interval, since
   every branch and quotient the interval pins comes out the same. *)
let test_single_validity_interval () =
  let rand = Random.State.make [| 42 |] in
  let interior lo hi =
    if hi > lo then lo + Random.State.full_int rand (hi - lo) else lo
  in
  check_single_cases ~name:"validity" ~seed:400 (fun c ->
      List.for_all
        (fun (input_on_chip, output_on_chip) ->
          List.for_all
            (fun cap ->
              let r, ((lo, hi) as validity) =
                eval_case c ~cap ~input_on_chip ~output_on_chip
              in
              lo <= cap && cap <= hi
              && List.for_all
                   (fun cap' ->
                     let r', validity' =
                       eval_case c ~cap:cap' ~input_on_chip ~output_on_chip
                     in
                     same_result r r' && validity = validity')
                   [ lo; hi; interior lo hi ])
            (case_caps c))
        flag_pairs)

(* A segment-cache hit at another capacity inside a recorded interval
   returns exactly what a fresh, cache-less evaluation there does. *)
let test_seg_cache_interval_hit () =
  let rand = Random.State.make [| 43 |] in
  let moved = ref 0 in
  check_single_cases ~name:"seg cache hit" ~seed:500 (fun c ->
      let input_on_chip = Random.State.bool rand in
      let output_on_chip = Random.State.bool rand in
      let cap = c.plan.Builder.Buffer_alloc.fm_capacity_bytes in
      let _, (lo, hi) = eval_case c ~cap ~input_on_chip ~output_on_chip in
      (* Another capacity in [lo, hi], at most 16 MiB away. *)
      let cap' =
        if hi > cap then
          cap + 1 + Random.State.full_int rand (min (hi - cap) sixteen_mib)
        else if lo < cap then lo + Random.State.full_int rand (cap - lo)
        else cap
      in
      if cap' <> cap then incr moved;
      let cache = Mccm.Seg_cache.create () in
      let single cap compute =
        Mccm.Seg_cache.single cache ~engine:c.engine ~cap ~first:c.first
          ~last:c.last ~input_on_chip ~output_on_chip compute
      in
      ignore
        (single cap (fun () -> eval_case c ~cap ~input_on_chip ~output_on_chip));
      let hit = single cap' (fun () -> Alcotest.fail "expected a cache hit") in
      let fresh, _ = eval_case c ~cap:cap' ~input_on_chip ~output_on_chip in
      same_result hit fresh && Mccm.Seg_cache.single_counts cache = (1, 1));
  checkb "some hits at a moved capacity" true (!moved > 0)

(* --------------------------------------------------- Pipelined_model *)

let pipelined_setup () =
  let board = Platform.Board.zcu102 in
  let archi = Arch.Baselines.hybrid ~ces:5 res50 in
  let built = Builder.Build.build ~table:res50_table res50 board archi in
  match
    ( built.Builder.Build.blocks.(0),
      built.Builder.Build.plan.Builder.Buffer_alloc.block_plans.(0) )
  with
  | ( Builder.Build.Built_pipelined { engines; first; last; _ },
      Builder.Buffer_alloc.Plan_pipelined plan ) ->
    (board, engines, plan, first, last)
  | _ -> Alcotest.fail "expected pipelined first block"

let test_pipelined_throughput_is_bottleneck () =
  let board, engines, plan, first, last = pipelined_setup () in
  let r =
    Mccm.Pipelined_model.evaluate ~table:res50_table ~board ~engines ~plan ~first
      ~last ~input_on_chip:false ~output_on_chip:true ()
  in
  let max_busy =
    Array.fold_left Float.max 0.0 r.Mccm.Pipelined_model.busy_s_per_engine
  in
  checkf "bottleneck = max busy" max_busy r.Mccm.Pipelined_model.bottleneck_s;
  checkb "latency >= bottleneck" true
    (r.Mccm.Pipelined_model.latency_s
    >= r.Mccm.Pipelined_model.bottleneck_s -. 1e-12)

let test_pipelined_eq2_uniform_round () =
  (* Hand-built single round with uniform tiles: Eq. 2 reduces to
     (tiles + ces - 1) x tile_time. *)
  let layers =
    List.init 3 (fun i ->
        Cnn.Layer.v ~index:i ~name:(Printf.sprintf "u%d" i)
          ~kind:Cnn.Layer.Standard
          ~in_shape:(Cnn.Shape.v ~channels:8 ~height:16 ~width:16)
          ~out_channels:8 ~kernel:3 ~stride:1 ~padding:1 ())
  in
  let model = Cnn.Model.v ~name:"Uniform" ~abbreviation:"U" ~layers in
  let board = Platform.Board.zcu102 in
  let engines =
    Array.init 3 (fun i ->
        Engine.Ce.v ~id:(i + 1) ~pes:4
          ~parallelism:
            (Engine.Parallelism.three_d ~filters:1 ~height:4 ~width:1)
          ~dataflow:Engine.Dataflow.Weight_stationary)
  in
  let plan =
    {
      Builder.Buffer_alloc.tiles_per_image = 4;
      width_split = 1;
      tile_rows = [| 4; 4; 4 |];
      fm_tile_bytes = [| 0; 0; 0 |];
      weights_retained = [| true; true; true |];
      weights_staging_bytes = 0;
    }
  in
  let r =
    Mccm.Pipelined_model.evaluate ~table:(Cnn.Table.of_model model) ~board
      ~engines ~plan ~first:0 ~last:2 ~input_on_chip:true ~output_on_chip:true ()
  in
  let tile_cyc = Engine.Ce.tile_cycles engines.(0) (List.hd layers) ~rows:4 in
  let expected_cycles = (4 + 3 - 1) * tile_cyc in
  checkf "Eq. 2 skewed pipeline"
    (Platform.Board.cycles_to_seconds board expected_cycles)
    r.Mccm.Pipelined_model.compute_s

let test_pipelined_weight_reload () =
  (* Unretained weights cost tiles x weights (Eq. 7). *)
  let board, engines, plan, first, last = pipelined_setup () in
  let all_streamed =
    {
      plan with
      Builder.Buffer_alloc.weights_retained =
        Array.map (fun _ -> false) plan.Builder.Buffer_alloc.weights_retained;
    }
  in
  let all_retained =
    {
      plan with
      Builder.Buffer_alloc.weights_retained =
        Array.map (fun _ -> true) plan.Builder.Buffer_alloc.weights_retained;
    }
  in
  let eval p =
    (Mccm.Pipelined_model.evaluate ~table:res50_table ~board ~engines ~plan:p ~first
       ~last ~input_on_chip:true ~output_on_chip:true ())
      .Mccm.Pipelined_model.accesses
  in
  let streamed = eval all_streamed and retained = eval all_retained in
  let bpe = 2 in
  check "retained = one access per weight"
    (Cnn.Model.weights_in_range res50 ~first ~last * bpe)
    retained.Mccm.Access.weights_bytes;
  checkb "streaming costs more" true
    (streamed.Mccm.Access.weights_bytes >= retained.Mccm.Access.weights_bytes)

(* --------------------------------------------------------- Evaluate *)

let test_evaluate_feasible_metrics () =
  let m =
    Mccm.Evaluate.metrics res50 Platform.Board.zcu102
      (Arch.Baselines.segmented ~ces:4 res50)
  in
  checkb "feasible" true m.Mccm.Metrics.feasible;
  checkb "positive latency" true (m.Mccm.Metrics.latency_s > 0.0);
  checkb "positive throughput" true (m.Mccm.Metrics.throughput_ips > 0.0);
  checkb "buffers fit board" true
    (m.Mccm.Metrics.buffer_bytes
    <= Platform.Board.zcu102.Platform.Board.bram_bytes)

let test_evaluate_throughput_vs_latency () =
  (* With coarse pipelining, throughput exceeds 1/latency (stages overlap
     on different inputs); the paper stresses they are not inverses. *)
  let m =
    Mccm.Evaluate.metrics res50 Platform.Board.zcu102
      (Arch.Baselines.segmented ~ces:6 res50)
  in
  checkb "throughput > 1/latency" true
    (m.Mccm.Metrics.throughput_ips > 1.0 /. m.Mccm.Metrics.latency_s)

let test_evaluate_accesses_floor () =
  (* Nothing can access less than weights + model input + output. *)
  List.iter
    (fun (_, archi) ->
      let m = Mccm.Evaluate.metrics res50 Platform.Board.zcu102 archi in
      let bpe = 2 in
      let floor =
        (Cnn.Model.total_weights res50
        + Cnn.Shape.elements (Cnn.Model.input_shape res50)
        + Cnn.Model.output_elements res50)
        * bpe
      in
      checkb "accesses >= floor" true (Mccm.Metrics.accesses_bytes m >= floor))
    (Arch.Baselines.all_instances res50)

let test_evaluate_breakdown_consistency () =
  let e =
    Mccm.Evaluate.evaluate res50 Platform.Board.zc706
      (Arch.Baselines.segmented ~ces:4 res50)
  in
  let b = e.Mccm.Evaluate.breakdown in
  check "4 segments" 4 (List.length b.Mccm.Breakdown.segments);
  check "accesses add up"
    (Mccm.Metrics.accesses_bytes e.Mccm.Evaluate.metrics)
    (Mccm.Access.total b.Mccm.Breakdown.accesses);
  List.iter
    (fun (s : Mccm.Breakdown.segment) ->
      checkb "utilization in (0,1]" true
        (s.Mccm.Breakdown.utilization > 0.0
        && s.Mccm.Breakdown.utilization <= 1.0 +. 1e-9))
    b.Mccm.Breakdown.segments

let test_evaluate_segrr_segments_are_rounds () =
  let e =
    Mccm.Evaluate.evaluate res50 Platform.Board.zc706
      (Arch.Baselines.segmented_rr ~ces:2 res50)
  in
  (* 53 layers / 2 CEs -> 27 rounds reported as segments (Fig. 6a). *)
  check "27 segments" 27
    (List.length e.Mccm.Evaluate.breakdown.Mccm.Breakdown.segments)

let test_evaluate_initiation_interval () =
  let e =
    Mccm.Evaluate.evaluate res50 Platform.Board.zcu102
      (Arch.Baselines.segmented ~ces:4 res50)
  in
  checkf "ii = 1/throughput"
    (1.0 /. e.Mccm.Evaluate.metrics.Mccm.Metrics.throughput_ips)
    e.Mccm.Evaluate.initiation_interval_s;
  checkb "ii <= latency" true
    (e.Mccm.Evaluate.initiation_interval_s
    <= e.Mccm.Evaluate.metrics.Mccm.Metrics.latency_s +. 1e-12)

(* Segment labels come from a precomputed table up to its end and are
   built past it; both must read "seg1", "seg2", ... in execution
   order.  Res152 split into 100 single-CE segments crosses the end. *)
let test_segment_labels () =
  let res152 = Cnn.Model_zoo.resnet152 () in
  let e =
    Mccm.Evaluate.evaluate res152 Platform.Board.vcu108
      (Arch.Baselines.segmented ~ces:100 res152)
  in
  Alcotest.(check (list string))
    "labels"
    (List.init 100 (fun i -> Printf.sprintf "seg%d" (i + 1)))
    (List.map
       (fun (s : Mccm.Breakdown.segment) -> s.Mccm.Breakdown.label)
       e.Mccm.Evaluate.breakdown.Mccm.Breakdown.segments)

let test_evaluate_deterministic () =
  let run () =
    Mccm.Evaluate.metrics mobv2 Platform.Board.vcu110
      (Arch.Baselines.hybrid ~ces:6 mobv2)
  in
  let a = run () and b = run () in
  checkf "same latency" a.Mccm.Metrics.latency_s b.Mccm.Metrics.latency_s;
  check "same accesses" (Mccm.Metrics.accesses_bytes a)
    (Mccm.Metrics.accesses_bytes b)

(* --------------------------------------------------------- Roofline *)

let test_roofline_bounds_achieved () =
  (* The model's throughput can never exceed the roofline ceiling. *)
  List.iter
    (fun (_, archi) ->
      let board = Platform.Board.zc706 in
      let m = Mccm.Evaluate.metrics res50 board archi in
      let r = Mccm.Roofline.analyze res50 board m in
      checkb "efficiency <= 1" true (r.Mccm.Roofline.efficiency <= 1.0 +. 1e-9);
      checkb "positive AI" true (r.Mccm.Roofline.arithmetic_intensity > 0.0))
    (Arch.Baselines.all_instances res50)

let test_roofline_classification () =
  (* SegmentedRR/2 on ZC706 reloads weights heavily: it must classify as
     memory-bound; the same design on a 19.2 GB/s board with retained
     weights is compute-bound. *)
  let m_small =
    Mccm.Evaluate.metrics res50 Platform.Board.zc706
      (Arch.Baselines.segmented_rr ~ces:2 res50)
  in
  let r_small = Mccm.Roofline.analyze res50 Platform.Board.zc706 m_small in
  checkb "ZC706 SegRR memory-bound" true
    (r_small.Mccm.Roofline.bound = Mccm.Roofline.Memory_bound);
  let m_big =
    Mccm.Evaluate.metrics res50 Platform.Board.zcu102
      (Arch.Baselines.segmented ~ces:4 res50)
  in
  let r_big = Mccm.Roofline.analyze res50 Platform.Board.zcu102 m_big in
  checkb "ZCU102 Segmented compute-bound" true
    (r_big.Mccm.Roofline.bound = Mccm.Roofline.Compute_bound)

let test_roofline_machine_balance () =
  (* ZC706: 900 DSPs x 200 MHz / 3.2 GB/s = 56.25 MACs per byte. *)
  let m =
    Mccm.Evaluate.metrics res50 Platform.Board.zc706
      (Arch.Baselines.segmented ~ces:4 res50)
  in
  let r = Mccm.Roofline.analyze res50 Platform.Board.zc706 m in
  checkf "balance" 56.25 r.Mccm.Roofline.machine_balance

(* --------------------------------------------------- one-shot memory *)

(* A one-shot [Evaluate.metrics] owns no memo, so a long run of them
   must leave the live heap where it started (the daemon's registry-full
   fallback, [Validate] and [mccm eval] all take this path).  Inputs are
   fixed: a seeded stream over a fixed (model, board, arch) list, as in
   a seeded check_prop loop, so a failure reproduces exactly.  Every
   call is also checked against its warm-up result. *)
let test_oneshot_heap_flat () =
  let res152 = Cnn.Model_zoo.resnet152 () in
  let cases =
    [|
      (res50, Platform.Board.vcu108, Arch.Baselines.segmented ~ces:4 res50);
      (res50, Platform.Board.zc706, Arch.Baselines.hybrid ~ces:4 res50);
      (mobv2, Platform.Board.zcu102, Arch.Baselines.segmented_rr ~ces:3 mobv2);
      (res152, Platform.Board.vcu108, Arch.Baselines.segmented ~ces:5 res152);
    |]
  in
  let metrics (m, b, a) = Mccm.Evaluate.metrics m b a in
  (* Warm-up: fills the content-keyed parallelism-search memo once. *)
  let reference = Array.map metrics cases in
  let live_words () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let rng = Random.State.make [| 42 |] in
  let mismatches = ref 0 in
  let before = live_words () in
  for _ = 1 to 2000 do
    let k = Random.State.int rng (Array.length cases) in
    if metrics cases.(k) <> reference.(k) then incr mismatches
  done;
  let growth = live_words () - before in
  check "calls differing from their warm-up result" 0 !mismatches;
  if growth >= 100_000 then
    Alcotest.failf "2000 one-shot evaluations grew the live heap by %d words"
      growth

(* ------------------------------------------------------- properties *)

let instance_gen =
  QCheck2.Gen.(
    let* ces = int_range 2 11 in
    let* style = oneofl [ `Seg; `Rr; `Hyb ] in
    return (ces, style))

let arch_of (ces, style) model =
  match style with
  | `Seg -> Arch.Baselines.segmented ~ces model
  | `Rr -> Arch.Baselines.segmented_rr ~ces model
  | `Hyb -> Arch.Baselines.hybrid ~ces model

let prop_metrics_positive =
  QCheck2.Test.make ~name:"metrics strictly positive on every baseline"
    ~count:30 instance_gen (fun inst ->
      let m =
        Mccm.Evaluate.metrics mobv2 Platform.Board.vcu108 (arch_of inst mobv2)
      in
      m.Mccm.Metrics.latency_s > 0.0
      && m.Mccm.Metrics.throughput_ips > 0.0
      && m.Mccm.Metrics.buffer_bytes > 0
      && Mccm.Metrics.accesses_bytes m > 0)

let prop_latency_bounded_by_serial =
  QCheck2.Test.make
    ~name:"latency never exceeds fully serial single-PE execution" ~count:20
    instance_gen (fun inst ->
      let board = Platform.Board.vcu108 in
      let m = Mccm.Evaluate.metrics mobv2 board (arch_of inst mobv2) in
      let serial =
        Platform.Board.cycles_to_seconds board (Cnn.Model.total_macs mobv2)
        +. Platform.Board.bytes_to_seconds board (Mccm.Metrics.accesses_bytes m)
      in
      m.Mccm.Metrics.latency_s <= serial)

let properties =
  List.map QCheck_alcotest.to_alcotest
    [ prop_metrics_positive; prop_latency_bounded_by_serial ]

let () =
  Alcotest.run "mccm"
    [
      ("access", [ Alcotest.test_case "arithmetic" `Quick test_access_arithmetic ]);
      ("metrics", [ Alcotest.test_case "better" `Quick test_metrics_better ]);
      ( "single_ce",
        [
          Alcotest.test_case "ideal accesses" `Quick test_single_ideal_accesses;
          Alcotest.test_case "spill monotone" `Quick test_single_spill_monotone;
          Alcotest.test_case "latency bounds" `Quick
            test_single_latency_is_per_layer_max;
          Alcotest.test_case "inter-segment input" `Quick
            test_single_interseg_input;
          Alcotest.test_case "Eq.6 miniature: fits" `Quick
            test_eq6_miniature_fits;
          Alcotest.test_case "Eq.6 miniature: streams" `Quick
            test_eq6_miniature_ifm_streams;
          Alcotest.test_case "Eq.6 miniature: interseg" `Quick
            test_eq6_miniature_interseg_input;
          Alcotest.test_case "Eq.9 interseg tradeoff" `Quick
            test_eq9_interseg_tradeoff;
          Alcotest.test_case "matches oracle" `Quick test_single_matches_oracle;
          Alcotest.test_case "validity interval" `Quick
            test_single_validity_interval;
          Alcotest.test_case "seg cache interval hit" `Quick
            test_seg_cache_interval_hit;
        ] );
      ( "pipelined",
        [
          Alcotest.test_case "throughput bottleneck" `Quick
            test_pipelined_throughput_is_bottleneck;
          Alcotest.test_case "Eq.2 uniform round" `Quick
            test_pipelined_eq2_uniform_round;
          Alcotest.test_case "weight reload" `Quick test_pipelined_weight_reload;
        ] );
      ( "roofline",
        [
          Alcotest.test_case "bounds achieved" `Quick
            test_roofline_bounds_achieved;
          Alcotest.test_case "classification" `Quick
            test_roofline_classification;
          Alcotest.test_case "machine balance" `Quick
            test_roofline_machine_balance;
        ] );
      ( "evaluate",
        [
          Alcotest.test_case "feasible metrics" `Quick
            test_evaluate_feasible_metrics;
          Alcotest.test_case "throughput vs latency" `Quick
            test_evaluate_throughput_vs_latency;
          Alcotest.test_case "accesses floor" `Quick test_evaluate_accesses_floor;
          Alcotest.test_case "breakdown consistency" `Quick
            test_evaluate_breakdown_consistency;
          Alcotest.test_case "SegRR segments are rounds" `Quick
            test_evaluate_segrr_segments_are_rounds;
          Alcotest.test_case "initiation interval" `Quick
            test_evaluate_initiation_interval;
          Alcotest.test_case "deterministic" `Quick test_evaluate_deterministic;
          Alcotest.test_case "one-shot heap flat" `Quick test_oneshot_heap_flat;
          Alcotest.test_case "segment labels" `Quick test_segment_labels;
        ] );
      ("properties", properties);
    ]
