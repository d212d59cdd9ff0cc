(* Exhaustive enumeration, the bound-ordered exhaustive search, and
   hill-climbing over custom specs. *)

let h_neighbourhood = Mccm_obs.Metric.histogram "dse.neighbourhood_size"
let c_steps = Mccm_obs.Metric.counter "dse.local_search.steps"
let c_exhaustive = Mccm_obs.Metric.counter "dse.exhaustive.specs"
let c_evaluated = Mccm_obs.Metric.counter "dse.exhaustive.evaluated"
let c_pruned = Mccm_obs.Metric.counter "dse.exhaustive.pruned"
let c_cut = Mccm_obs.Metric.counter "dse.exhaustive.cut"
let c_ls_pruned = Mccm_obs.Metric.counter "dse.local_search.pruned"
let g_best_objective = Mccm_obs.Metric.gauge "dse.best_objective"

let enumerate_specs ~num_layers ~ces ~max_specs =
  if ces < 2 then invalid_arg "Enumerate.enumerate_specs: ces < 2";
  let out = ref [] in
  let count = ref 0 in
  let emit spec =
    if !count < max_specs then begin
      incr count;
      out := spec :: !out
    end
  in
  (* Choose boundaries of [s - 1] cut points in (f, num_layers) in
     lexicographic order. *)
  let rec boundaries ~from ~remaining acc f =
    if !count >= max_specs then ()
    else if remaining = 0 then
      emit { Arch.Custom.pipelined_layers = f; tail_boundaries = List.rev acc }
    else
      for b = from to num_layers - remaining do
        boundaries ~from:(b + 1) ~remaining:(remaining - 1) (b :: acc) f
      done
  in
  let f_max = min (ces - 1) (num_layers - 1) in
  for f = 1 to f_max do
    let s = ces - f in
    if num_layers - f >= s then
      boundaries ~from:(f + 1) ~remaining:(s - 1) [] f
  done;
  List.rev !out

let session_or_fresh session model board =
  match session with
  | Some s -> s
  | None -> Mccm.Eval_session.create model board

(* Sequential warm-up for a crew: run a small strided sample of the
   spec rows through the parent session so its plan/segment tables —
   and the builder's parallelism-search memo — are populated before the
   per-worker forks are cut.  Caching is bit-invisible, so the warm-up
   cannot change any result; it only moves the cold start off the
   parallel phase. *)
let warm_strided ~session ~buf ~width ~n model =
  let stride = max 1 (n / 16) in
  let i = ref 0 in
  while !i < n do
    ignore
      (Mccm.Eval_session.metrics ~store_arch:false session
         (Arch.Custom.arch_of_spec model (Space.Flat.decode buf ~width !i)));
    i := !i + stride
  done

let exhaustive ?(max_specs = 20000) ?session ?(domains = 1) ?clamp ?pool ~ces
    model board =
  Mccm_obs.span ~cat:"dse" "dse.exhaustive" @@ fun () ->
  let session = session_or_fresh session model board in
  let width = Space.Flat.width ~ces in
  let buf =
    Space.Flat.enumerate ~num_layers:(Cnn.Model.num_layers model) ~ces
      ~max_specs
  in
  let n = Space.Flat.count buf ~width in
  Mccm_obs.Metric.add c_exhaustive n;
  (* Lexicographic neighbours share almost all their blocks, so the
     session's segment/plan tables turn the scan largely into lookups. *)
  let eval_slice ~session ~lo ~hi =
    let out = ref [] in
    for i = lo to hi - 1 do
      let spec = Space.Flat.decode buf ~width i in
      let archi = Arch.Custom.arch_of_spec model spec in
      let metrics = Mccm.Eval_session.metrics ~store_arch:false session archi in
      if metrics.Mccm.Metrics.feasible then
        out := { Explore.spec; metrics } :: !out
    done;
    List.rev !out
  in
  Crew.with_crew ?pool ?clamp ~domains session (fun crew ->
      Crew.warmup crew (fun () -> warm_strided ~session ~buf ~width ~n model);
      List.concat (Crew.map crew ~n eval_slice))

type objective = [ `Throughput | `Latency ]

type search_stats = {
  enumerated : int;
  evaluated : int;
  pruned : int;
  nodes : int;
  domains_used : int;
}

(* Rows per chunk of a parallel round: a round hands each crew worker
   one chunk of this many consecutive rows of the bound order. *)
let round_chunk = 256

let round_length ~crew_size =
  if crew_size <= 1 then max_int else crew_size * round_chunk

(* The best design so far, its score and its enumeration rank. *)
type incumbent = { design : Explore.evaluated; score : float; rank : int }

(* The search's total order: higher score, then earlier rank. *)
let beats a b = a.score > b.score || (a.score = b.score && a.rank < b.rank)

let better a b =
  match (a, b) with
  | None, x | x, None -> x
  | Some x, Some y -> if beats y x then b else a

(* One exhaustive search, visiting specs in admissible-bound order.
   Every row of the flat enumeration gets its bound once; rows are then
   visited by (bound descending, rank ascending).  A row whose bound is
   strictly below the incumbent's score cannot win, and neither can any
   row after it, so the visit stops there; a row whose bound only ties
   the incumbent can at best tie it, which loses at a later rank, so it
   is skipped.  Acceptance on (score, rank) makes the winner the first
   strict maximum of enumeration order, whatever is pruned.

   With more than one worker, the order is cut into fixed-length rounds
   of one chunk per worker.  Each chunk starts from the round-start
   incumbent and keeps its own, so its output depends only on its rows;
   the round's chunk winners merge by (score, rank) into the next
   round's incumbent.  Without pruning every bound is [infinity] and
   the order stays enumeration order.

   With pruning, a visited row that cannot beat the incumbent may still
   be decided without running the cost model: its design is built, and
   the blocks the session's segment cache already holds are enough
   when they prove its score strictly below the incumbent's
   ({!Mccm.Eval_session.metrics_unless_beaten}).  Such a row still
   counts as evaluated: the early exit changes how a row is decided,
   never which rows are visited. *)
let exhaustive_best ?(max_specs = 20000) ?session ?(domains = 1) ?clamp ?pool
    ?(prune = true) ~objective ~ces model board =
  Mccm_obs.span ~cat:"dse" "dse.exhaustive_best" @@ fun () ->
  let session = session_or_fresh session model board in
  let score m =
    if not m.Mccm.Metrics.feasible then neg_infinity
    else
      match objective with
      | `Throughput -> m.Mccm.Metrics.throughput_ips
      | `Latency -> -.m.Mccm.Metrics.latency_s
  in
  let width = Space.Flat.width ~ces in
  let buf =
    Space.Flat.enumerate ~num_layers:(Cnn.Model.num_layers model) ~ces
      ~max_specs
  in
  let n = Space.Flat.count buf ~width in
  Mccm_obs.Metric.add c_exhaustive n;
  let bound = Array.make n infinity in
  let order = Array.init n Fun.id in
  let visit start ~session ~lo ~hi =
    let best = ref start and evaluated = ref 0 and pruned = ref 0 in
    let rec go p =
      if p < hi then begin
        let r = order.(p) in
        match !best with
        | Some inc when bound.(r) < inc.score ->
          pruned := !pruned + (hi - p)
        | Some inc when bound.(r) = inc.score && r > inc.rank ->
          incr pruned;
          go (p + 1)
        | inc ->
          incr evaluated;
          let spec = Space.Flat.decode buf ~width r in
          let archi = Arch.Custom.arch_of_spec model spec in
          let metrics =
            match inc with
            | Some inc when prune ->
              Mccm.Eval_session.metrics_unless_beaten session ~objective
                ~cutoff:inc.score archi
            | _ ->
              Some (Mccm.Eval_session.metrics ~store_arch:false session archi)
          in
          (match metrics with
           | None -> Mccm_obs.Metric.incr c_cut
           | Some m ->
             let s = score m in
             if s > neg_infinity then
               best :=
                 better !best
                   (Some
                      { design = { Explore.spec; metrics = m }; score = s;
                        rank = r }));
          go (p + 1)
      end
    in
    go lo;
    (!best, !evaluated, !pruned)
  in
  Crew.with_crew ?pool ?clamp ~domains session @@ fun crew ->
  Crew.warmup crew (fun () -> warm_strided ~session ~buf ~width ~n model);
  if prune then begin
    (* The flat bounds walk each row in place: a pruned row is never
       decoded. *)
    let ctx =
      Bounds.context
        (Bounds.create (Mccm.Eval_session.table session) board)
        ~ces
    in
    let row_bound =
      match objective with
      | `Throughput -> Bounds.throughput_upper_bound_flat ctx buf ~width
      | `Latency -> fun i -> -.Bounds.latency_lower_bound_flat ctx buf ~width i
    in
    ignore
      (Crew.map crew ~n (fun ~session:_ ~lo ~hi ->
           for r = lo to hi - 1 do
             bound.(r) <- row_bound r
           done));
    (* Stable, so equal bounds keep rank order. *)
    Array.stable_sort (fun a b -> Float.compare bound.(b) bound.(a)) order
  end;
  let len = round_length ~crew_size:(Crew.size crew) in
  let rec rounds pos best evaluated pruned =
    if pos >= n then (best, evaluated, pruned)
    else
      match best with
      | Some inc when bound.(order.(pos)) < inc.score ->
        (best, evaluated, pruned + (n - pos))
      | _ ->
        let m = min len (n - pos) in
        let chunks =
          Crew.map crew ~chunk_hint:round_chunk ~n:m (fun ~session ~lo ~hi ->
              visit best ~session ~lo:(pos + lo) ~hi:(pos + hi))
        in
        let best, evaluated, pruned =
          List.fold_left
            (fun (b, e, p) (b', e', p') -> (better b b', e + e', p + p'))
            (best, evaluated, pruned) chunks
        in
        rounds (pos + m) best evaluated pruned
  in
  let best, evaluated, pruned = rounds 0 None 0 0 in
  Mccm_obs.Metric.add c_evaluated evaluated;
  Mccm_obs.Metric.add c_pruned pruned;
  Option.iter
    (fun inc -> Mccm_obs.Metric.update_max g_best_objective inc.score)
    best;
  ( Option.map (fun inc -> inc.design) best,
    { enumerated = n; evaluated; pruned; nodes = 0;
      domains_used = Crew.size crew } )

type step = {
  moved : string;
  spec : Arch.Custom.spec;
  metrics : Mccm.Metrics.t;
}

(* All one-move neighbours of a spec that remain in range. *)
let neighbours ~num_layers (spec : Arch.Custom.spec) =
  let f = spec.Arch.Custom.pipelined_layers in
  let bs = spec.Arch.Custom.tail_boundaries in
  let valid s =
    let rec ok prev = function
      | [] -> true
      | b :: rest -> b > prev && b < num_layers && ok b rest
    in
    s.Arch.Custom.pipelined_layers >= 1
    && s.Arch.Custom.pipelined_layers < num_layers
    && ok s.Arch.Custom.pipelined_layers s.Arch.Custom.tail_boundaries
  in
  let shift_boundary i delta =
    let bs' = List.mapi (fun j b -> if j = i then b + delta else b) bs in
    ( Printf.sprintf "shift boundary %d by %+d" (i + 1) delta,
      { Arch.Custom.pipelined_layers = f; tail_boundaries = bs' } )
  in
  let change_depth delta =
    ( Printf.sprintf "pipelined depth %+d" delta,
      { Arch.Custom.pipelined_layers = f + delta; tail_boundaries = bs } )
  in
  let split_largest =
    (* Insert a boundary in the middle of the widest tail segment. *)
    let edges = (f :: bs) @ [ num_layers ] in
    let rec widest best = function
      | a :: (b :: _ as rest) ->
        let best =
          match best with
          | Some (ba, bb) when bb - ba >= b - a -> best
          | _ -> Some (a, b)
        in
        widest best rest
      | _ -> best
    in
    match widest None edges with
    | Some (a, b) when b - a >= 2 ->
      let mid = (a + b) / 2 in
      [
        ( Printf.sprintf "split segment at L%d" (mid + 1),
          { Arch.Custom.pipelined_layers = f;
            tail_boundaries = List.sort compare (mid :: bs) } );
      ]
    | _ -> []
  in
  let merge_each =
    List.mapi
      (fun i _ ->
        ( Printf.sprintf "merge at boundary %d" (i + 1),
          { Arch.Custom.pipelined_layers = f;
            tail_boundaries = List.filteri (fun j _ -> j <> i) bs } ))
      bs
  in
  let shifts =
    List.concat
      (List.mapi (fun i _ -> [ shift_boundary i 1; shift_boundary i (-1) ]) bs)
  in
  List.filter
    (fun (_, s) -> valid s)
    (shifts @ [ change_depth 1; change_depth (-1) ] @ split_largest
    @ merge_each)

let local_search ~objective ?(max_steps = 25) ?session ?(domains = 1) ?clamp
    ?pool ?bound model board seed =
  Mccm_obs.span ~cat:"dse" "dse.local_search" @@ fun () ->
  let num_layers = Cnn.Model.num_layers model in
  let session = session_or_fresh session model board in
  (* A move touches one or two block boundaries, so re-evaluating a
     neighbour recomputes only the touched blocks; every other segment
     (and the climb's revisits of the current spec's neighbours) comes
     out of the session. *)
  let eval spec =
    Mccm.Eval_session.metrics session (Arch.Custom.arch_of_spec model spec)
  in
  let score m =
    if m.Mccm.Metrics.feasible then objective m else neg_infinity
  in
  (* One crew for the whole climb: the old path re-forked the session
     and re-spawned a domain per chunk on every single step.  Here the
     per-worker forks are cut once — after the seed evaluation has
     warmed the parent — and every step's neighbourhood is mapped as
     singleton chunks over the same crew. *)
  Crew.with_crew ?pool ?clamp ~domains session @@ fun crew ->
  let eval_all cands =
    List.concat
      (Crew.map crew ~chunk_hint:1 ~n:(Array.length cands)
         (fun ~session ~lo ~hi ->
           let out = ref [] in
           for i = lo to hi - 1 do
             let moved, c = cands.(i) in
             out :=
               ( moved,
                 c,
                 Mccm.Eval_session.metrics session
                   (Arch.Custom.arch_of_spec model c) )
               :: !out
           done;
           List.rev !out))
  in
  let rec climb spec metrics steps_left trajectory =
    if steps_left = 0 then List.rev trajectory
    else begin
      let current = score metrics in
      if current > neg_infinity then
        Mccm_obs.Metric.update_max g_best_objective current;
      let neigh = neighbours ~num_layers spec in
      Mccm_obs.Metric.incr c_steps;
      Mccm_obs.Metric.observe h_neighbourhood
        (float_of_int (List.length neigh));
      (* A neighbour is accepted only on a strict improvement over
         [current], so one whose admissible score bound cannot exceed
         [current] is skipped without evaluation — the selection below
         would have dropped it anyway. *)
      let cands =
        match bound with
        | None -> Array.of_list neigh
        | Some b ->
          let kept =
            List.filter (fun (_, c) -> not (b c <= current)) neigh
          in
          Mccm_obs.Metric.add c_ls_pruned
            (List.length neigh - List.length kept);
          Array.of_list kept
      in
      let evaluated = eval_all cands in
      let best =
        List.fold_left
          (fun acc (moved, candidate, m) ->
            let s = score m in
            match acc with
            | Some (_, _, sb) when sb >= s -> acc
            | _ when s > current -> Some ((moved, candidate, m), m, s)
            | _ -> acc)
          None evaluated
      in
      match best with
      | None -> List.rev trajectory
      | Some ((moved, spec', m), _, _) ->
        climb spec' m (steps_left - 1)
          ({ moved; spec = spec'; metrics = m } :: trajectory)
    end
  in
  let m0 = eval seed in
  climb seed m0 max_steps [ { moved = "seed"; spec = seed; metrics = m0 } ]
