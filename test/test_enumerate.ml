(* Tests for exhaustive enumeration and local search over custom
   designs, plus the builder's ablation knobs. *)

let check = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let mobv2 = Cnn.Model_zoo.mobilenet_v2 ()
let board = Platform.Board.vcu108

(* -------------------------------------------------------- enumerate *)

let test_enumeration_counts_match_space () =
  (* The enumerated count must equal the analytic space size when under
     the cap. *)
  List.iter
    (fun (n, ces) ->
      let specs =
        Dse.Enumerate.enumerate_specs ~num_layers:n ~ces ~max_specs:100000
      in
      check
        (Printf.sprintf "n=%d ces=%d" n ces)
        (int_of_float (Dse.Space.designs_for_ce_count ~num_layers:n ~ces))
        (List.length specs))
    [ (4, 2); (4, 3); (5, 3); (8, 4); (10, 3); (12, 5) ]

let test_enumeration_specs_distinct_and_valid () =
  let n = 10 and ces = 4 in
  let specs =
    Dse.Enumerate.enumerate_specs ~num_layers:n ~ces ~max_specs:100000
  in
  check "distinct" (List.length specs)
    (List.length (List.sort_uniq compare specs));
  List.iter
    (fun spec ->
      check "exact CE count" ces (Arch.Custom.total_ces spec);
      (* Must materialise without raising. *)
      let model =
        (* a synthetic 10-layer chain *)
        let layers =
          List.init n (fun i ->
              Cnn.Layer.v ~index:i ~name:(Printf.sprintf "l%d" i)
                ~kind:Cnn.Layer.Standard
                ~in_shape:(Cnn.Shape.v ~channels:8 ~height:16 ~width:16)
                ~out_channels:8 ~kernel:3 ~stride:1 ~padding:1 ())
        in
        Cnn.Model.v ~name:"Chain10" ~abbreviation:"C10" ~layers
      in
      ignore (Arch.Custom.arch_of_spec model spec))
    specs

let test_enumeration_cap () =
  let specs =
    Dse.Enumerate.enumerate_specs ~num_layers:52 ~ces:8 ~max_specs:500
  in
  check "capped" 500 (List.length specs)

let test_exhaustive_small () =
  let evaluated = Dse.Enumerate.exhaustive ~ces:2 mobv2 board in
  (* 52 layers, 2 CEs: f=1, s=1 -> exactly one design. *)
  check "one design" 1 (List.length evaluated);
  checkb "feasible" true
    (List.for_all
       (fun (e : Dse.Explore.evaluated) ->
         e.Dse.Explore.metrics.Mccm.Metrics.feasible)
       evaluated)

(* ----------------------------------------------------- local search *)

let objective m = m.Mccm.Metrics.throughput_ips

let test_local_search_monotone () =
  let seed = { Arch.Custom.pipelined_layers = 3; tail_boundaries = [ 20 ] } in
  let steps = Dse.Enumerate.local_search ~objective mobv2 board seed in
  checkb "has seed" true (List.length steps >= 1);
  let scores =
    List.map
      (fun (s : Dse.Enumerate.step) -> objective s.Dse.Enumerate.metrics)
      steps
  in
  let rec increasing = function
    | a :: (b :: _ as rest) -> a < b && increasing rest
    | _ -> true
  in
  checkb "strictly improving" true (increasing scores)

let test_local_search_beats_seed () =
  let seed = { Arch.Custom.pipelined_layers = 2; tail_boundaries = [ 30 ] } in
  let steps = Dse.Enumerate.local_search ~objective mobv2 board seed in
  match (steps, List.rev steps) with
  | first :: _, last :: _ ->
    checkb "final >= seed" true
      (objective last.Dse.Enumerate.metrics
      >= objective first.Dse.Enumerate.metrics)
  | _ -> Alcotest.fail "no steps"

let test_local_search_respects_max_steps () =
  let seed = { Arch.Custom.pipelined_layers = 2; tail_boundaries = [ 30 ] } in
  let steps =
    Dse.Enumerate.local_search ~objective ~max_steps:1 mobv2 board seed
  in
  checkb "at most seed + 1" true (List.length steps <= 2)

let test_local_search_specs_valid () =
  let seed = { Arch.Custom.pipelined_layers = 4; tail_boundaries = [ 15; 30 ] } in
  let steps = Dse.Enumerate.local_search ~objective mobv2 board seed in
  List.iter
    (fun (s : Dse.Enumerate.step) ->
      ignore (Arch.Custom.arch_of_spec mobv2 s.Dse.Enumerate.spec))
    steps

let test_local_search_seed_first () =
  let seed = { Arch.Custom.pipelined_layers = 3; tail_boundaries = [ 20 ] } in
  let steps = Dse.Enumerate.local_search ~objective mobv2 board seed in
  match steps with
  | [] -> Alcotest.fail "no steps"
  | first :: _ ->
    checkb "trajectory starts at the seed" true
      (first.Dse.Enumerate.spec = seed);
    checkb "seed metrics match direct evaluation" true
      (first.Dse.Enumerate.metrics
      = Mccm.Evaluate.metrics mobv2 board (Arch.Custom.arch_of_spec mobv2 seed))

let test_local_search_reaches_local_optimum () =
  (* With an unbounded step budget the climb must stop only when no
     single-move neighbour improves the objective — check that claim
     against the exported neighbourhood itself. *)
  let seed = { Arch.Custom.pipelined_layers = 3; tail_boundaries = [ 20 ] } in
  let steps =
    Dse.Enumerate.local_search ~objective ~max_steps:1000 mobv2 board seed
  in
  let final = List.nth steps (List.length steps - 1) in
  let best = objective final.Dse.Enumerate.metrics in
  let session = Mccm.Eval_session.create mobv2 board in
  List.iter
    (fun (move, spec) ->
      let m =
        Mccm.Eval_session.metrics session (Arch.Custom.arch_of_spec mobv2 spec)
      in
      checkb
        (Printf.sprintf "no improving neighbour (%s)" move)
        true
        (objective m <= best))
    (Dse.Enumerate.neighbours
       ~num_layers:(Cnn.Model.num_layers mobv2)
       final.Dse.Enumerate.spec)

let test_local_search_session_invisible () =
  (* The session cache must not change the trajectory: same moves, same
     specs, bit-identical metrics with and without memoization. *)
  let seed = { Arch.Custom.pipelined_layers = 4; tail_boundaries = [ 15; 30 ] } in
  let run memoize =
    Dse.Enumerate.local_search ~objective
      ~session:(Mccm.Eval_session.create ~memoize mobv2 board)
      mobv2 board seed
  in
  checkb "identical trajectories" true (run true = run false)

let test_exhaustive_prefix_deterministic () =
  (* Enumeration order is lexicographic and independent of the cap, so
     a shorter run must be a prefix of a longer one. *)
  let run max_specs = Dse.Enumerate.exhaustive ~max_specs ~ces:3 mobv2 board in
  let short = run 60 and long = run 120 in
  checkb "short run is a prefix" true
    (List.length short <= List.length long);
  List.iteri
    (fun i (e : Dse.Explore.evaluated) ->
      let e' = List.nth long i in
      checkb "same spec" true (e.Dse.Explore.spec = e'.Dse.Explore.spec);
      checkb "same metrics" true (e.Dse.Explore.metrics = e'.Dse.Explore.metrics))
    short

let test_exhaustive_session_invisible () =
  let run memoize =
    Dse.Enumerate.exhaustive
      ~session:(Mccm.Eval_session.create ~memoize mobv2 board)
      ~max_specs:80 ~ces:4 mobv2 board
  in
  checkb "identical evaluations" true (run true = run false)

(* ------------------------------------------ exhaustive-best exactness *)

(* A 10-layer chain of identical layers: a dense plateau of equal-score
   designs, the hardest case for tie-breaking determinism. *)
let chain10 =
  let layers =
    List.init 10 (fun i ->
        Cnn.Layer.v ~index:i ~name:(Printf.sprintf "u%d" i)
          ~kind:Cnn.Layer.Standard
          ~in_shape:(Cnn.Shape.v ~channels:8 ~height:16 ~width:16)
          ~out_channels:8 ~kernel:3 ~stride:1 ~padding:1 ())
  in
  Cnn.Model.v ~name:"Chain10" ~abbreviation:"C10" ~layers

let winner_testable =
  let pp ppf = function
    | None -> Format.fprintf ppf "none"
    | Some (e : Dse.Explore.evaluated) ->
      Format.fprintf ppf "{f=%d; b=[%s]} %.17g"
        e.Dse.Explore.spec.Arch.Custom.pipelined_layers
        (String.concat ";"
           (List.map string_of_int
              e.Dse.Explore.spec.Arch.Custom.tail_boundaries))
        e.Dse.Explore.metrics.Mccm.Metrics.throughput_ips
  in
  Alcotest.testable pp ( = )

let score_of objective (m : Mccm.Metrics.t) =
  match objective with
  | `Throughput -> m.Mccm.Metrics.throughput_ips
  | `Latency -> -.m.Mccm.Metrics.latency_s

(* The reference winner, independent of the search under test: the
   first strict maximum of the plain exhaustive evaluation, folded in
   enumeration order. *)
let reference_winner ~max_specs ~objective ~ces model =
  List.fold_left
    (fun acc (e : Dse.Explore.evaluated) ->
      match acc with
      | Some (b : Dse.Explore.evaluated)
        when score_of objective b.Dse.Explore.metrics
             >= score_of objective e.Dse.Explore.metrics ->
        acc
      | _ -> Some e)
    None
    (Dse.Enumerate.exhaustive ~max_specs ~ces model board)

let workloads =
  [
    (mobv2, 3, `Throughput, 800);
    (mobv2, 4, `Throughput, 600);
    (mobv2, 3, `Latency, 800);
    (chain10, 4, `Throughput, 10000);
    (chain10, 4, `Latency, 10000);
  ]

(* Every (prune, domains) combination must return the reference winner
   — same spec, bit-identical metrics. *)
let test_bit_exact () =
  List.iter
    (fun (model, ces, objective, max_specs) ->
      let reference = reference_winner ~max_specs ~objective ~ces model in
      List.iter
        (fun (prune, domains) ->
          let label = Printf.sprintf "prune=%b domains=%d" prune domains in
          let got, stats =
            Dse.Enumerate.exhaustive_best ~max_specs ~prune ~domains
              ~clamp:false ~objective ~ces model board
          in
          Alcotest.check winner_testable label reference got;
          check (label ^ ": specs accounted for")
            stats.Dse.Enumerate.enumerated
            (stats.Dse.Enumerate.evaluated + stats.Dse.Enumerate.pruned))
        [ (true, 1); (true, 2); (true, 4); (false, 1); (false, 2); (false, 4) ])
    workloads

(* The pooled path must reproduce the reference winner too.  One shared
   pool serves every configuration and workload back-to-back, so
   per-worker state leaking between runs (a stale fork, a stuck round)
   would surface as a wrong winner or a hang here. *)
let test_pooled_bit_exact () =
  let pool = Util.Parallel.Pool.create ~clamp:false ~domains:4 () in
  Fun.protect ~finally:(fun () -> Util.Parallel.Pool.shutdown pool)
  @@ fun () ->
  List.iter
    (fun (model, ces, objective, max_specs) ->
      let reference = reference_winner ~max_specs ~objective ~ces model in
      List.iter
        (fun prune ->
          let label = Printf.sprintf "pooled prune=%b" prune in
          let got, stats =
            Dse.Enumerate.exhaustive_best ~max_specs ~prune ~pool ~objective
              ~ces model board
          in
          Alcotest.check winner_testable label reference got;
          check (label ^ ": ran on the pool") 4
            stats.Dse.Enumerate.domains_used;
          check (label ^ ": specs accounted for")
            stats.Dse.Enumerate.enumerated
            (stats.Dse.Enumerate.evaluated + stats.Dse.Enumerate.pruned))
        [ true; false ])
    workloads

(* On the uniform chain nearly every design ties: the returned winner
   must still be the lexicographically first one, on one domain and on
   four. *)
let test_tie_breaking_lex_first () =
  let reference =
    reference_winner ~max_specs:10000 ~objective:`Throughput ~ces:3 chain10
  in
  List.iter
    (fun domains ->
      let got, _ =
        Dse.Enumerate.exhaustive_best ~max_specs:10000 ~domains ~clamp:false
          ~objective:`Throughput ~ces:3 chain10 board
      in
      Alcotest.check winner_testable
        (Printf.sprintf "tie goes to the lex-first spec (%d domains)" domains)
        reference got)
    [ 1; 4 ];
  match reference with
  | Some e ->
    (* The lex-first spec of ces=3 is f=1 with the earliest boundary. *)
    check "lex-first pipelined depth" 1
      e.Dse.Explore.spec.Arch.Custom.pipelined_layers
  | None -> Alcotest.fail "no winner"

(* Pruning must actually pay off on a deep ResNet workload —
   homogeneous mid-network layers make the floors tight: real pruning,
   winner preserved.  (On depthwise networks like MobileNetV2 the
   shared-engine parallelism coupling keeps per-layer floors loose and
   pruning near zero; that is expected, not a bug.)  The evaluated
   count is pinned: a looser bound or a worse visit order shows up
   here first. *)
let test_pruning_pays () =
  let res152 = Cnn.Model_zoo.resnet152 () in
  let reference =
    reference_winner ~max_specs:30000 ~objective:`Throughput ~ces:10 res152
  in
  let got, stats =
    Dse.Enumerate.exhaustive_best ~max_specs:30000 ~objective:`Throughput
      ~ces:10 res152 board
  in
  Alcotest.check winner_testable "winner identical under pruning" reference
    got;
  check "evaluated" 13473 stats.Dse.Enumerate.evaluated;
  check "accounting" stats.Dse.Enumerate.enumerated
    (stats.Dse.Enumerate.evaluated + stats.Dse.Enumerate.pruned)

(* [f ()] with metrics on, and the count [f] added to [counter]. *)
let counted counter f =
  let c = Mccm_obs.Metric.counter counter in
  Mccm_obs.enable ();
  let before = Mccm_obs.Metric.value c in
  let r = Fun.protect ~finally:Mccm_obs.disable f in
  (r, Mccm_obs.Metric.value c - before)

(* The bounds, bit for bit: the exhaustive counts and winner of two
   CLI-default workloads (20 000 specs), and the summed bounds of their
   first 2 000 specs as hex floats, all recorded before the floors were
   computed per layer shape.  The visit follows the bounds, so the
   pruned count moves if any floor changes; the sums also pin the
   floors of MobileNetV2, where nothing is pruned.  Beside the counts,
   [cut] pins how many visited specs the segment cache's early exit
   decided without running the cost model (the "dse.exhaustive.cut"
   counter, on one domain): it moves if the probe gets looser or
   tighter.  On MobileNetV2 the bounds prune nothing, so every skip
   there is the early exit's. *)
let test_bounds_pinned () =
  let pin name model board ces objective ~counts ~cut ~spec ~sums =
    let (got, stats), cuts =
      counted "dse.exhaustive.cut" (fun () ->
          Dse.Enumerate.exhaustive_best ~max_specs:20000 ~objective ~ces
            model board)
    in
    Alcotest.(check (triple int int int))
      (name ^ ": enumerated, evaluated, pruned")
      counts
      Dse.Enumerate.(stats.enumerated, stats.evaluated, stats.pruned);
    check (name ^ ": cut by the early exit") cut cuts;
    (match got with
     | Some e ->
       Alcotest.(check (pair int (list int)))
         (name ^ ": winner spec") spec
         ( e.Dse.Explore.spec.Arch.Custom.pipelined_layers,
           e.Dse.Explore.spec.Arch.Custom.tail_boundaries )
     | None -> Alcotest.fail (name ^ ": no winner"));
    let b = Dse.Bounds.create (Cnn.Table.of_model model) board in
    let specs =
      Dse.Enumerate.enumerate_specs ~num_layers:(Cnn.Model.num_layers model)
        ~ces ~max_specs:2000
    in
    let sum f =
      Printf.sprintf "%h" (List.fold_left (fun a s -> a +. f b s) 0.0 specs)
    in
    Alcotest.(check (triple string string string))
      (name ^ ": summed throughput, latency and cycle bounds")
      sums
      ( sum Dse.Bounds.throughput_upper_bound,
        sum Dse.Bounds.latency_lower_bound,
        sum Dse.Bounds.compute_ii_floor_cycles )
  in
  pin "Res152/VCU108 ces=10 throughput" (Cnn.Model_zoo.resnet152 ())
    Platform.Board.vcu108 10 `Throughput ~counts:(20000, 9009, 10991)
    ~cut:7816
    ~spec:(1, [ 2; 3; 4; 5; 6; 8; 99; 103 ])
    ~sums:
      ( "0x1.98ad16dfaf975p+14",
        "0x1.315ee9a05aeedp+10",
        "0x1.c7d95cc3932aap+34" );
  pin "MobV2/ZC706 ces=6 latency" mobv2 Platform.Board.zc706 6 `Latency
    ~counts:(20000, 20000, 0) ~cut:11648 ~spec:(1, [ 2; 40; 41; 43 ])
    ~sums:
      ( "0x1.1d88ceaa3dc47p+20",
        "0x1.3a01ef73be8e1p+4",
        "0x1.463267aa870dbp+29" )

(* [--no-prune] stays the oracle: the early exit is off, so every
   visited spec runs the cost model. *)
let test_no_prune_runs_every_spec () =
  let res152 = Cnn.Model_zoo.resnet152 () in
  let session = Mccm.Eval_session.create res152 board in
  let (_, stats), cuts =
    counted "dse.exhaustive.cut" (fun () ->
        Dse.Enumerate.exhaustive_best ~session ~max_specs:2000 ~prune:false
          ~objective:`Throughput ~ces:10 res152 board)
  in
  check "nothing cut" 0 cuts;
  check "every spec evaluated" 2000 stats.Dse.Enumerate.evaluated;
  check "every spec ran the cost model" 2000
    (Mccm.Eval_session.stats session).Mccm.Eval_session.evaluations

let test_reports_no_nodes () =
  List.iter
    (fun domains ->
      let _, stats =
        Dse.Enumerate.exhaustive_best ~max_specs:100 ~domains ~clamp:false
          ~objective:`Throughput ~ces:3 mobv2 board
      in
      check "no B&B nodes" 0 stats.Dse.Enumerate.nodes)
    [ 1; 2 ]

(* How much the bound-ordered visit evaluates, against the bounds
   themselves.  With winner score [s*], one domain must evaluate every
   spec whose bound exceeds [s*] (none of them can be skipped) and
   nothing whose bound is below it (the visit stops there);
   [k] domains may overshoot by at most one round.  (The ResNets are
   drawn because their bounds prune; MobileNetV2's barely do.) *)
let prop_evaluated_between_bound_counts =
  let res152 = Cnn.Model_zoo.resnet152 () and res50 = Cnn.Model_zoo.resnet50 () in
  let gen =
    QCheck2.Gen.(
      quad
        (oneofl [ ("Res152", res152); ("Res50", res50) ])
        (int_range 4 10) (int_range 300 2500)
        (oneofl [ `Throughput; `Latency ]))
  in
  let print ((name, _), ces, max_specs, objective) =
    Printf.sprintf "%s ces=%d max_specs=%d %s" name ces max_specs
      (match objective with `Throughput -> "throughput" | `Latency -> "latency")
  in
  QCheck2.Test.make ~count:8 ~name:"evaluated between bound counts"
    ~print gen
    (fun ((_, model), ces, max_specs, objective) ->
      let b = Dse.Bounds.create (Cnn.Table.of_model model) board in
      let bound spec =
        match objective with
        | `Throughput -> Dse.Bounds.throughput_upper_bound b spec
        | `Latency -> -.Dse.Bounds.latency_lower_bound b spec
      in
      let bounds =
        List.map bound
          (Dse.Enumerate.enumerate_specs
             ~num_layers:(Cnn.Model.num_layers model) ~ces ~max_specs)
      in
      let run domains =
        Dse.Enumerate.exhaustive_best ~max_specs ~domains ~clamp:false
          ~objective ~ces model board
      in
      let winner, one = run 1 in
      let s =
        match winner with
        | Some e -> score_of objective e.Dse.Explore.metrics
        | None -> neg_infinity
      in
      let count p = List.length (List.filter p bounds) in
      let above = count (fun x -> x > s) and at_least = count (fun x -> x >= s) in
      let k = 2 in
      let _, many = run k in
      above <= one.Dse.Enumerate.evaluated
      && one.Dse.Enumerate.evaluated <= at_least
      && many.Dse.Enumerate.evaluated
         <= at_least + Dse.Enumerate.round_length ~crew_size:k)

(* --------------------------------------------------- builder options *)

let res50 = Cnn.Model_zoo.resnet50 ()

let metrics_with options archi =
  let table = Cnn.Table.of_model res50 in
  (Mccm.Evaluate.run ~table (Builder.Build.build ~options ~table res50 board archi))
    .Mccm.Evaluate.metrics

let test_naive_parallelism_never_faster () =
  List.iter
    (fun (_, archi) ->
      let opt = metrics_with Builder.Build.default_options archi in
      let naive =
        metrics_with
          { Builder.Build.default_options with parallelism = `Naive }
          archi
      in
      checkb "optimized latency <= naive" true
        (opt.Mccm.Metrics.latency_s <= naive.Mccm.Metrics.latency_s *. 1.001))
    [
      ("seg", Arch.Baselines.segmented ~ces:4 res50);
      ("rr", Arch.Baselines.segmented_rr ~ces:4 res50);
      ("hyb", Arch.Baselines.hybrid ~ces:4 res50);
    ]

let test_balanced_pe_allocation () =
  (* Cycle balancing must narrow the busy-time spread of a round-robin
     pipeline's engines (or leave it unchanged at a fixed point). *)
  let spread options =
    let built =
      Workload_helper.build ~options res50 board
        (Arch.Baselines.segmented_rr ~ces:4 res50)
    in
    let cycles =
      Array.map
        (fun e ->
          List.fold_left
            (fun acc i ->
              if
                (Builder.Build.engine_for_layer built i).Engine.Ce.id
                = e.Engine.Ce.id
              then acc + Engine.Ce.layer_cycles e (Cnn.Model.layer res50 i)
              else acc)
            0
            (List.init (Cnn.Model.num_layers res50) Fun.id))
        built.Builder.Build.engines
    in
    let mx = Array.fold_left max 1 cycles in
    let mn = Array.fold_left min max_int cycles in
    float_of_int mx /. float_of_int (max 1 mn)
  in
  let macs = spread Builder.Build.default_options in
  let balanced =
    spread { Builder.Build.default_options with pe_allocation = `Balanced }
  in
  checkb
    (Printf.sprintf "balanced spread %.3f <= macs spread %.3f x 1.05" balanced
       macs)
    true
    (balanced <= macs *. 1.05)

let test_minimal_buffers_tradeoff () =
  List.iter
    (fun archi ->
      let greedy = metrics_with Builder.Build.default_options archi in
      let minimal =
        metrics_with
          { Builder.Build.default_options with buffers = `Minimal }
          archi
      in
      checkb "minimal uses fewer buffers" true
        (minimal.Mccm.Metrics.buffer_bytes <= greedy.Mccm.Metrics.buffer_bytes);
      checkb "minimal never accesses less" true
        (Mccm.Metrics.accesses_bytes minimal
        >= Mccm.Metrics.accesses_bytes greedy))
    [
      Arch.Baselines.segmented ~ces:4 res50;
      Arch.Baselines.segmented_rr ~ces:4 res50;
      Arch.Baselines.hybrid ~ces:4 res50;
    ]

let () =
  Alcotest.run "enumerate"
    [
      ( "enumeration",
        [
          Alcotest.test_case "counts match space" `Quick
            test_enumeration_counts_match_space;
          Alcotest.test_case "distinct and valid" `Quick
            test_enumeration_specs_distinct_and_valid;
          Alcotest.test_case "cap" `Quick test_enumeration_cap;
          Alcotest.test_case "exhaustive small" `Quick test_exhaustive_small;
          Alcotest.test_case "exhaustive prefix deterministic" `Quick
            test_exhaustive_prefix_deterministic;
          Alcotest.test_case "exhaustive session invisible" `Quick
            test_exhaustive_session_invisible;
        ] );
      ( "local search",
        [
          Alcotest.test_case "monotone" `Quick test_local_search_monotone;
          Alcotest.test_case "beats seed" `Quick test_local_search_beats_seed;
          Alcotest.test_case "max steps" `Quick
            test_local_search_respects_max_steps;
          Alcotest.test_case "valid specs" `Quick test_local_search_specs_valid;
          Alcotest.test_case "seed first" `Quick test_local_search_seed_first;
          Alcotest.test_case "genuine local optimum" `Slow
            test_local_search_reaches_local_optimum;
          Alcotest.test_case "session invisible" `Quick
            test_local_search_session_invisible;
        ] );
      ( "best-first",
        [
          Alcotest.test_case "bit-exact over domains, pruning" `Slow
            test_bit_exact;
          Alcotest.test_case "pooled path bit-exact" `Quick
            test_pooled_bit_exact;
          Alcotest.test_case "ties break lex-first" `Quick
            test_tie_breaking_lex_first;
          Alcotest.test_case "pruning pays and preserves" `Slow
            test_pruning_pays;
          Alcotest.test_case "bounds pinned bit for bit" `Quick
            test_bounds_pinned;
          Alcotest.test_case "scan reports no nodes" `Quick
            test_reports_no_nodes;
          Alcotest.test_case "no prune runs every spec" `Quick
            test_no_prune_runs_every_spec;
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 15 |])
            prop_evaluated_between_bound_counts;
        ] );
      ( "builder options",
        [
          Alcotest.test_case "naive parallelism" `Slow
            test_naive_parallelism_never_faster;
          Alcotest.test_case "minimal buffers" `Quick
            test_minimal_buffers_tradeoff;
          Alcotest.test_case "balanced PE allocation" `Quick
            test_balanced_pe_allocation;
        ] );
    ]
