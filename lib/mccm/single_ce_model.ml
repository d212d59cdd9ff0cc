type layer_result = {
  layer_index : int;
  compute_cycles : int;
  accesses : Access.t;
  ifm_on_chip : bool;
  ofm_stays_on_chip : bool;
}

type result = {
  compute_cycles : int;
  accesses : Access.t;
  compute_s : float;
  memory_s : float;
  latency_s : float;
  utilization : float;
}

(* The evaluator reads its buffer plan only through [fm_capacity_bytes],
   and every use is either a threshold test ([t <= cap]) or a ceiling
   division of a constant by a window carved out of the capacity — so
   the result is a piecewise-constant function of the capacity.  The DP
   state's [lo]/[hi] record, as the DP runs, the inclusive capacity
   interval on which every branch taken and every quotient computed
   stays the same; any capacity inside the interval provably yields a
   bit-identical result.  {!Seg_cache} uses this to survive the
   byte-granular churn of the planner's global proportional grants.

   The rest of the state is the two-state DP over the layer chain.  A
   state is whether a layer's OFM stays resident in the block's FM
   capacity (state 1) or not (state 0) — that is, whether the next
   layer's IFM is.  Layer [first + k] owns the backpointer slots [2k]
   (state 0) and [2k + 1] (state 1); a slot holds the source state, the
   weight bytes and the FM bytes of the cheapest candidate reaching it.
   Running totals are ints and candidates are offered one at a time, so
   stepping a layer allocates nothing. *)
type dp = {
  cap : int;
  mutable lo : int;
  mutable hi : int;
  mutable slot : int;  (* 2k for the layer being stepped *)
  mutable src : int;  (* the source state of the candidates on offer *)
  mutable src_total : int;  (* and its running total *)
  mutable last_store : int;
      (* OFM bytes a staying candidate pays: the block's last layer
         writes its OFM off-chip, so it does not stay for anyone *)
  mutable next0 : int;  (* running totals of the two target states, *)
  mutable next1 : int;  (* -1 while unreached *)
  bp_src : Bytes.t;
  bp_w : int array;
  bp_fm : int array;
  cycles : int array;  (* Eq. 1 cycles of layer [first + k] *)
}

(* Outcome-preserving threshold test: [t <= cap], narrowing the
   validity interval to the capacities that decide the same way. *)
let le_cap d t =
  if t <= d.cap then begin
    if t > d.lo then d.lo <- t;
    true
  end
  else begin
    if t - 1 < d.hi then d.hi <- t - 1;
    false
  end

(* Value-preserving [ceil_div x avail] for [avail = max 1 (cap - reserved)]:
   narrows the validity interval to the capacities producing the same
   quotient. *)
let cd_window d ~reserved x =
  let cap = d.cap in
  let avail = Int.max 1 (cap - reserved) in
  if cap - reserved < 1 then begin
    (* Clamp active: any capacity <= reserved gives the same window. *)
    if reserved < d.hi then d.hi <- reserved
  end
  else begin
    if reserved + 1 > d.lo then d.lo <- reserved + 1;
    if x > 0 then begin
      let n = Util.Int_math.ceil_div x avail in
      let alo = Util.Int_math.ceil_div x n in
      if reserved + alo > d.lo then d.lo <- reserved + alo;
      if n > 1 then begin
        let ahi = (x - 1) / (n - 1) in
        if reserved + ahi < d.hi then d.hi <- reserved + ahi
      end
    end
  end;
  Util.Int_math.ceil_div x avail

(* Offer one candidate — [w] weight bytes and [fm] FM bytes, leaving
   the OFM resident iff [stays] — to its target state.  It replaces the
   state's incumbent only when strictly cheaper, so among equal totals
   the first offered wins. *)
let offer d ~stays w fm =
  let fm = if stays then fm + d.last_store else fm in
  let total = d.src_total + w + fm in
  let incumbent = if stays then d.next1 else d.next0 in
  if incumbent < 0 || total < incumbent then begin
    if stays then d.next1 <- total else d.next0 <- total;
    let s = d.slot + if stays then 1 else 0 in
    Bytes.set d.bp_src s (Char.chr d.src);
    d.bp_w.(s) <- w;
    d.bp_fm.(s) <- fm
  end

(* Streaming regime of a layer whose IFM is off-chip: charge the
   cheaper of Eq. 6's two options under one reservation of the
   capacity. *)
let stream d ~w ~ifm ~ofm ~extra ~ofm_to_interseg ~extra_kept ~keep_ofm =
  let extra_reserved = if extra_kept then extra else 0 in
  let es = if extra_kept then 0 else extra in
  let reserved = extra_reserved + if keep_ofm then ofm else 0 in
  (* Option 1 — OS, locally input-stationary: each IFM chunk is loaded
     once and the weights re-streamed per chunk. *)
  let opt1_w = w * cd_window d ~reserved ifm in
  let opt1_fm = ifm in
  (* Option 2 — OS, locally weight-stationary: each weight chunk is
     loaded once and the IFM re-streamed per chunk. *)
  let opt2_w = w in
  let opt2_fm = ifm * cd_window d ~reserved w in
  let opt1 = opt1_w + opt1_fm <= opt2_w + opt2_fm in
  let w_acc = if opt1 then opt1_w else opt2_w in
  let ifm_acc = if opt1 then opt1_fm else opt2_fm in
  let ofm_acc = if keep_ofm || ofm_to_interseg then 0 else ofm in
  offer d ~stays:(keep_ofm || ofm_to_interseg) w_acc (es + ifm_acc + ofm_acc)

(* Eq. 6 for one layer, as a set of legal buffering decisions rather
   than a single greedy pick, each offered to the state it leads to.
   [ifm_in_cap] is true when the IFM occupies this block's FM capacity
   (it was produced by the previous layer); when the IFM sits in an
   inter-segment buffer it is on-chip but costs no capacity.
   [ofm_to_interseg] frees the OFM from the capacity and forbids
   spilling it.  [src] is the source state and [src_total] its running
   total. *)
let offer_candidates d ~src ~src_total ~w ~ifm ~ofm ~extra ~band ~ifm_on_chip
    ~ifm_in_cap ~ofm_to_interseg =
  d.src <- src;
  d.src_total <- src_total;
  let ifm_cap_bytes = if ifm_in_cap then ifm else 0 in
  let ofm_cap_bytes = if ofm_to_interseg then 0 else ofm in
  (* A resident shortcut stays on-chip only while everything fits; when a
     layer spills, the shortcut spills too, at roughly one pass of its
     bytes per carrying layer (a residual chain of two carrying layers
     pays its store once and its reload once). *)
  if ifm_on_chip then begin
    if le_cap d (ifm_cap_bytes + ofm_cap_bytes + extra) then begin
      (* Ideal case: one access per weight. *)
      offer d ~stays:true w 0;
      (* Voluntarily spilling the OFM can still pay off when the next
         layer would otherwise be squeezed out of its capacity. *)
      if not ofm_to_interseg then offer d ~stays:false w ofm
    end
    else begin
      (* Keep the OFM resident by evicting the shortcut instead. *)
      if extra > 0 && le_cap d (ifm_cap_bytes + ofm_cap_bytes) then
        offer d ~stays:true w extra;
      (* IFM is resident but the OFM cannot stay: stream it out.  The
         shortcut only spills if it no longer fits beside the IFM. *)
      let es = if le_cap d (ifm_cap_bytes + extra) then 0 else extra in
      offer d ~stays:ofm_to_interseg w
        (es + if ofm_to_interseg then 0 else ofm)
    end
  end
  else begin
    (* IFM off-chip; [band] is the one-OFM-row IFM streaming band. *)
    if le_cap d (ifm + ofm_cap_bytes + extra) then begin
      (* Load the IFM once; everything is buffered afterwards. *)
      offer d ~stays:true w ifm;
      if not ofm_to_interseg then offer d ~stays:false w (ifm + ofm)
    end
    else begin
      if extra > 0 && le_cap d (ifm + ofm_cap_bytes) then
        offer d ~stays:true w (ifm + extra);
      (* Streaming regime, under each feasible reservation. *)
      let extra_fits = le_cap d (extra + ofm_cap_bytes + band) in
      stream d ~w ~ifm ~ofm ~extra ~ofm_to_interseg ~extra_kept:false
        ~keep_ofm:false;
      if extra_fits then
        stream d ~w ~ifm ~ofm ~extra ~ofm_to_interseg ~extra_kept:true
          ~keep_ofm:false;
      if (not ofm_to_interseg) && le_cap d (ofm + band) then
        stream d ~w ~ifm ~ofm ~extra ~ofm_to_interseg ~extra_kept:false
          ~keep_ofm:true;
      if extra_fits && (not ofm_to_interseg) && le_cap d (ofm + extra + band)
      then
        stream d ~w ~ifm ~ofm ~extra ~ofm_to_interseg ~extra_kept:true
          ~keep_ofm:true
    end
  end

(* The forward pass: step every layer of [first..last], then return the
   DP state, the winning final state and the MAC-weighted utilization
   (folded in [Engine.Ce.average_utilization_at]'s order, so it is
   bit-identical to it).  Charging the cheapest chain (not a per-layer
   greedy) keeps the modelled traffic monotone in the capacity: a
   keep-the-OFM decision that squeezes a later layer's streaming window
   is outbid by the spill chain. *)
let forward ~table ~board ~engine ~plan ~first ~last ~input_on_chip
    ~output_on_chip =
  if first > last then invalid_arg "Single_ce_model: empty layer range";
  let bpe = board.Platform.Board.bytes_per_element in
  let pes = engine.Engine.Ce.pes in
  let n = last - first + 1 in
  let d =
    {
      cap = plan.Builder.Buffer_alloc.fm_capacity_bytes;
      lo = 0;
      hi = max_int;
      slot = 0;
      src = 0;
      src_total = 0;
      last_store = 0;
      next0 = -1;
      next1 = -1;
      bp_src = Bytes.make (2 * n) '\000';
      bp_w = Array.make (2 * n) 0;
      bp_fm = Array.make (2 * n) 0;
      cycles = Array.make n 0;
    }
  in
  let weighted = ref 0.0 and total_macs = ref 0.0 in
  (* Running totals of the current layer's two source states. *)
  let total0 = ref (-1) and total1 = ref (-1) in
  for i = first to last do
    let k = i - first in
    let w = Cnn.Table.weight_elements table i * bpe in
    let ifm = Cnn.Table.ifm_elements table i * bpe in
    let ofm = Cnn.Table.ofm_elements table i * bpe in
    let extra = Cnn.Table.extra_resident_elements table i * bpe in
    let band = Cnn.Table.band1_elements table i * bpe in
    let cycles = Engine.Ce.layer_cycles_at engine table i in
    d.cycles.(k) <- cycles;
    let m = float_of_int (Cnn.Table.macs table i) in
    let u =
      float_of_int (Engine.Ce.ideal_cycles_at ~pes table i)
      /. float_of_int cycles
    in
    weighted := !weighted +. (m *. u);
    total_macs := !total_macs +. m;
    let is_last = i = last in
    let ofm_to_interseg = is_last && output_on_chip in
    d.slot <- 2 * k;
    d.last_store <- (if is_last && not output_on_chip then ofm else 0);
    if k = 0 then
      (* The block input arrives either off-chip or through an
         inter-segment buffer: on-chip but outside the capacity. *)
      offer_candidates d ~src:0 ~src_total:0 ~w ~ifm ~ofm ~extra ~band
        ~ifm_on_chip:input_on_chip ~ifm_in_cap:false ~ofm_to_interseg
    else begin
      if !total0 >= 0 then
        offer_candidates d ~src:0 ~src_total:!total0 ~w ~ifm ~ofm ~extra
          ~band ~ifm_on_chip:false ~ifm_in_cap:true ~ofm_to_interseg;
      if !total1 >= 0 then
        offer_candidates d ~src:1 ~src_total:!total1 ~w ~ifm ~ofm ~extra
          ~band ~ifm_on_chip:true ~ifm_in_cap:true ~ofm_to_interseg
    end;
    total0 := d.next0;
    total1 := d.next1;
    d.next0 <- -1;
    d.next1 <- -1
  done;
  (* Every layer offers >= 1 candidate from every reached state, so at
     least one final state is reached; state 0 keeps a tie. *)
  let final =
    if !total0 >= 0 && (!total1 < 0 || !total0 <= !total1) then 0 else 1
  in
  (d, final, !weighted /. !total_macs)

(* The winning chain's state per layer, walked back from [final]. *)
let chain d ~final =
  let n = Array.length d.cycles in
  let states = Bytes.create n in
  let j = ref final in
  for k = n - 1 downto 0 do
    Bytes.set states k (Char.chr !j);
    j := Char.code (Bytes.get d.bp_src ((2 * k) + !j))
  done;
  states

let state states k = Char.code (Bytes.get states k)

let evaluate_with_validity ~table ~board ~engine ~plan ~first ~last
    ~input_on_chip ~output_on_chip () =
  let d, final, utilization =
    forward ~table ~board ~engine ~plan ~first ~last ~input_on_chip
      ~output_on_chip
  in
  let states = chain d ~final in
  (* Replay the chain in layer order: the same float additions, in the
     same order, as a fold over its per-layer trace. *)
  let compute_cycles = ref 0 and w_sum = ref 0 and fm_sum = ref 0 in
  let latency_s = ref 0.0 in
  for k = 0 to Array.length d.cycles - 1 do
    let s = (2 * k) + state states k in
    let w = d.bp_w.(s) and fm = d.bp_fm.(s) in
    compute_cycles := !compute_cycles + d.cycles.(k);
    w_sum := !w_sum + w;
    fm_sum := !fm_sum + fm;
    (* Per-layer overlap of compute and transfer (double-buffered
       streams). *)
    let c = Platform.Board.cycles_to_seconds board d.cycles.(k) in
    let m = Platform.Board.bytes_to_seconds board (w + fm) in
    latency_s := !latency_s +. Float.max c m
  done;
  let accesses = { Access.weights_bytes = !w_sum; fms_bytes = !fm_sum } in
  ( {
      compute_cycles = !compute_cycles;
      accesses;
      compute_s = Platform.Board.cycles_to_seconds board !compute_cycles;
      memory_s = Platform.Board.bytes_to_seconds board (Access.total accesses);
      latency_s = !latency_s;
      utilization;
    },
    (d.lo, d.hi) )

let evaluate ~table ~board ~engine ~plan ~first ~last ~input_on_chip
    ~output_on_chip () =
  fst
    (evaluate_with_validity ~table ~board ~engine ~plan ~first ~last
       ~input_on_chip ~output_on_chip ())

let layers ~table ~board ~engine ~plan ~first ~last ~input_on_chip
    ~output_on_chip () =
  let d, final, _ =
    forward ~table ~board ~engine ~plan ~first ~last ~input_on_chip
      ~output_on_chip
  in
  let states = chain d ~final in
  List.init (Array.length d.cycles) (fun k ->
      let s = (2 * k) + state states k in
      {
        layer_index = first + k;
        compute_cycles = d.cycles.(k);
        accesses =
          { Access.weights_bytes = d.bp_w.(s); fms_bytes = d.bp_fm.(s) };
        ifm_on_chip =
          (if k = 0 then input_on_chip else state states (k - 1) = 1);
        ofm_stays_on_chip = state states k = 1;
      })
