type options = {
  parallelism : [ `Optimized | `Naive ];
  pe_allocation : [ `Proportional | `Balanced ];
  buffers : [ `Greedy | `Minimal ];
}

let default_options =
  { parallelism = `Optimized; pe_allocation = `Proportional; buffers = `Greedy }

type built_block =
  | Built_single of { engine : Engine.Ce.t; first : int; last : int }
  | Built_pipelined of {
      engines : Engine.Ce.t array;
      first : int;
      last : int;
    }

type t = {
  model : Cnn.Model.t;
  board : Platform.Board.t;
  archi : Arch.Block.arch;
  engines : Engine.Ce.t array;
  blocks : built_block array;
  plan : Buffer_alloc.t;
}

(* Largest cube edge fitting the PE count: the strawman parallelism the
   ablations compare against. *)
let naive_parallelism pes =
  let s = ref 1 in
  while (!s + 1) * (!s + 1) * (!s + 1) <= pes do
    incr s
  done;
  Engine.Parallelism.three_d ~filters:!s ~height:!s ~width:!s

(* A CE's layer assignment: it runs layers [first + slot],
   [first + slot + step], ... up to [last].  A single-CE block is slot 0
   of step 1; slot [s] of a pipelined block of [n] CEs has step [n]
   ({!Workload.slot_layers}). *)
type assignment = {
  first : int;
  last : int;
  slot : int;
  step : int;
  pipelined : bool;
}

(* Build-time memo shared across calls scoped to one (model, board,
   options) triple by its owner ({!Mccm.Eval_session}): the
   {!Buffer_alloc} planning floors, plus the parallelism chosen for a
   CE's layer assignment.  The parallelism key is the assignment's
   (first, last, slot, step) with the CE's PE count, which fully
   determines the search's input, so the layer list is built and
   {!Parallelism_select}'s search run only on a miss.  Only the chosen
   {!Engine.Parallelism.t} is cached; the {!Engine.Ce.t} is rebuilt per
   call so display ids stay correct. *)
type par_key = {
  k_first : int;
  k_last : int;
  k_slot : int;
  k_step : int;
  k_pes : int;
}

module Par_tbl = Hashtbl.Make (struct
  type t = par_key

  let equal a b =
    a.k_first = b.k_first && a.k_last = b.k_last && a.k_slot = b.k_slot
    && a.k_step = b.k_step && a.k_pes = b.k_pes

  let hash k =
    let module Fp = Util.Fingerprint in
    let h = Fp.int Fp.empty k.k_first in
    let h = Fp.int h k.k_last in
    let h = Fp.int h k.k_slot in
    let h = Fp.int h k.k_step in
    Fp.to_int (Fp.int h k.k_pes)
end)

type cache = {
  c_plans : Buffer_alloc.cache;
  c_pars : Engine.Parallelism.t Par_tbl.t;
}

let create_cache () =
  { c_plans = Buffer_alloc.create_cache (); c_pars = Par_tbl.create 64 }

let copy_cache c =
  { c_plans = Buffer_alloc.copy_cache c.c_plans;
    c_pars = Par_tbl.copy c.c_pars }

let absorb_cache ~into c =
  Buffer_alloc.absorb_cache ~into:into.c_plans c.c_plans;
  Par_tbl.iter
    (fun k v ->
      if not (Par_tbl.mem into.c_pars k) then Par_tbl.add into.c_pars k v)
    c.c_pars

let plan_cache c = c.c_plans

let c_builds = Mccm_obs.Metric.counter "build.builds"

let build ?(options = default_options) ?cache ~table model board archi =
  Mccm_obs.span ~cat:"build" "build.build" @@ fun () ->
  Mccm_obs.Metric.incr c_builds;
  Cnn.Table.check table model;
  let blocks = Array.of_list archi.Arch.Block.blocks in
  let num_ces = Arch.Block.total_ces archi in
  let assign =
    Array.make num_ces
      { first = 0; last = -1; slot = 0; step = 1; pipelined = false }
  in
  Array.iter
    (function
      | Arch.Block.Single { ce; first; last } ->
        assign.(ce) <- { first; last; slot = 0; step = 1; pipelined = false }
      | Arch.Block.Pipelined { ce_first; ce_last; first; last } ->
        let step = ce_last - ce_first + 1 in
        for slot = 0 to step - 1 do
          assign.(ce_first + slot) <-
            { first; last; slot; step; pipelined = true }
        done)
    blocks;
  let layers a =
    Workload.slot_layers ~ces:a.step ~first:a.first ~last:a.last ~slot:a.slot
  in
  (* Folds [f] over the layers of an assignment, in layer order. *)
  let fold_layers f acc a =
    let rec go i acc = if i > a.last then acc else go (i + a.step) (f acc i) in
    go (a.first + a.slot) acc
  in
  let make_engines pes =
    Array.init num_ces (fun ce ->
        let a = assign.(ce) in
        let parallelism =
          match options.parallelism with
          | `Naive -> naive_parallelism pes.(ce)
          | `Optimized -> (
            let compute () =
              Mccm_obs.span ~cat:"build" "build.parallelism_select"
                (fun () ->
                  Parallelism_select.choose_indices ~pes:pes.(ce) table
                    (layers a))
            in
            match cache with
            | None -> compute ()
            | Some c -> (
              let key =
                { k_first = a.first; k_last = a.last; k_slot = a.slot;
                  k_step = a.step; k_pes = pes.(ce) }
              in
              match Par_tbl.find_opt c.c_pars key with
              | Some p -> p
              | None ->
                let p = compute () in
                Par_tbl.add c.c_pars key p;
                p))
        in
        Engine.Ce.v ~id:(ce + 1) ~pes:pes.(ce) ~parallelism
          ~dataflow:
            (if a.pipelined then Engine.Dataflow.Weight_stationary
             else Engine.Dataflow.Output_stationary))
  in
  let workloads =
    Array.map
      (fun a ->
        if a.last < a.first + a.slot then 0
        else if a.step = 1 then
          Cnn.Table.macs_range table ~first:a.first ~last:a.last
        else fold_layers (fun s i -> s + Cnn.Table.macs table i) 0 a)
      assign
  in
  let engines =
    ref
      (make_engines
         (Pe_allocation.distribute ~budget:board.Platform.Board.dsps
            ~workloads))
  in
  (match options.pe_allocation with
  | `Proportional -> ()
  | `Balanced ->
    (* Redistribute PEs proportionally to each engine's modelled busy
       work (cycles x PEs approximates its PE-invariant load), keeping a
       redistribution only while the busiest/laziest spread shrinks. *)
    let cycles es =
      Array.init num_ces (fun ce ->
          fold_layers
            (fun s i -> s + Engine.Ce.layer_cycles_at es.(ce) table i)
            0 assign.(ce))
    in
    let spread cyc =
      let busiest = Array.fold_left max 1 cyc in
      let laziest =
        Array.fold_left (fun a c -> if c > 0 then min a c else a) busiest cyc
      in
      float_of_int busiest /. float_of_int (max 1 laziest)
    in
    let best = ref (spread (cycles !engines)) in
    (try
       for _pass = 1 to 3 do
         let cyc = cycles !engines in
         let wl =
           Array.init num_ces (fun ce ->
               max 1 cyc.(ce) * (!engines).(ce).Engine.Ce.pes)
         in
         let es =
           make_engines
             (Pe_allocation.distribute ~budget:board.Platform.Board.dsps
                ~workloads:wl)
         in
         let sp = spread (cycles es) in
         if sp < !best then begin
           engines := es;
           best := sp
         end
         else raise Exit
       done
     with Exit -> ()));
  let engines = !engines in
  let built_blocks =
    Array.map
      (function
        | Arch.Block.Single { ce; first; last } ->
          Built_single { engine = engines.(ce); first; last }
        | Arch.Block.Pipelined { ce_first; ce_last; first; last } ->
          Built_pipelined
            { engines = Array.sub engines ce_first (ce_last - ce_first + 1);
              first; last })
      blocks
  in
  let plan =
    Mccm_obs.span ~cat:"build" "build.plan" (fun () ->
        Buffer_alloc.plan
          ~minimal:(options.buffers = `Minimal)
          ?cache:(Option.map plan_cache cache) ~table board archi ~engines)
  in
  { model; board; archi; engines; blocks = built_blocks; plan }

let engine_for_layer t i =
  let rec find bi =
    if bi >= Array.length t.blocks then
      invalid_arg
        (Printf.sprintf "Build.engine_for_layer: layer %d out of range" i)
    else
      match t.blocks.(bi) with
      | Built_single { engine; first; last } when i >= first && i <= last ->
        engine
      | Built_pipelined { engines; first; last } when i >= first && i <= last
        ->
        engines.((i - first) mod Array.length engines)
      | _ -> find (bi + 1)
  in
  find 0

let pp ppf t =
  Format.fprintf ppf "@[<v>%a@,board: %a@,engines:" Arch.Block.pp t.archi
    Platform.Board.pp t.board;
  Array.iter (fun e -> Format.fprintf ppf "@,  %a" Engine.Ce.pp e) t.engines;
  Format.fprintf ppf "@,buffers: %d / %d bytes%s@]"
    t.plan.Buffer_alloc.total_bytes t.board.Platform.Board.bram_bytes
    (if t.plan.Buffer_alloc.feasible then "" else " (infeasible)")
