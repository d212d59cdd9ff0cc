(* The dse_cold workload: fresh `mccm explore` and `mccm enumerate`
   processes (the paper's Use Case 3 as a CLI user runs it), each paying
   the cold process-global builder memos, with their printed answers
   checked against the same searches run in-process. *)

let model_name = "Res152"
let board_name = "VCU108"
let ces = 10
let samples = 2000 (* `mccm explore` default *)
let max_specs = 20000 (* `mccm enumerate` default *)

let model () = Option.get (Cnn.Model_zoo.by_abbreviation model_name)
let board () = Option.get (Platform.Board.by_name board_name)

let target = [| "-m"; model_name; "-b"; board_name |]
let explore_argv ~mccm ~seed =
  Array.concat [ [| mccm; "explore" |]; target; [| "--seed"; string_of_int seed |] ]
let enumerate_argv ~mccm =
  Array.concat [ [| mccm; "enumerate" |]; target; [| "-c"; string_of_int ces |] ]
let eval_argv ~mccm = Array.concat [ [| mccm; "eval"; "hybrid/2" |]; target ]

let lines s = List.filter (fun l -> l <> "") (String.split_on_char '\n' s)

let design_line model (e : Dse.Explore.evaluated) =
  Format.asprintf "%-40s %a"
    (Arch.Notation.to_string (Arch.Custom.arch_of_spec model e.Dse.Explore.spec))
    Mccm.Metrics.pp e.Dse.Explore.metrics

(* What the CLI must print, from the same searches run in-process. *)
type expected = {
  explore_counts : int * int * int;       (* sampled, distinct, feasible *)
  front : string list;
  enum_counts : int * int * int * int;    (* enumerated, evaluated, pruned, nodes *)
  best : string;
  eval_line : string;
}

let expected ~seed =
  let model = model () and board = board () in
  let session = Mccm.Eval_session.create model board in
  let r = Dse.Explore.run ~seed:(Int64.of_int seed) ~session ~samples model board in
  let winner, st =
    Dse.Enumerate.exhaustive_best ~session ~objective:`Throughput ~ces model board
  in
  let archi =
    match Arch.Shorthand.parse model "hybrid/2" with Ok a -> a | Error m -> failwith m
  in
  {
    explore_counts = (samples, r.Dse.Explore.distinct, List.length r.Dse.Explore.evaluated);
    front =
      List.map
        (fun (p : Dse.Explore.evaluated Dse.Pareto.point) ->
          "  " ^ design_line model p.Dse.Pareto.item)
        r.Dse.Explore.front;
    enum_counts = Dse.Enumerate.(st.enumerated, st.evaluated, st.pruned, st.nodes);
    best =
      (match winner with
      | Some e -> "best throughput: " ^ design_line model e
      | None -> "no feasible design");
    eval_line =
      Format.asprintf "MCCM: %a" Mccm.Metrics.pp (Mccm.Evaluate.metrics model board archi);
  }

let scan line fmt k = try Some (Scanf.sscanf line fmt k) with _ -> None

(* Each checker returns [None] when the output is right, or what is
   wrong with it. *)
let check_explore ex out =
  match lines out with
  | first :: _ :: "Pareto front (throughput vs buffers):" :: front ->
    if
      scan first "%d designs sampled, %d distinct (%f%% dedup), %d feasible"
        (fun s d _ f -> (s, d, f))
      <> Some ex.explore_counts
    then Some ("explore counts: " ^ first)
    else if front <> ex.front then Some "explore Pareto front differs"
    else None
  | _ -> Some "explore output malformed"

let check_enumerate ex out =
  match lines out with
  | [ first; best ] ->
    if
      scan first "%d specs enumerated, %d evaluated, %d pruned (%f%%), %d B&B"
        (fun e v p _ n -> (e, v, p, n))
      <> Some ex.enum_counts
    then Some ("enumerate counts: " ^ first)
    else if best <> ex.best then Some ("enumerate best differs: " ^ best)
    else None
  | _ -> Some "enumerate output malformed"

let check_eval ex out =
  if List.mem ex.eval_line (lines out) then None else Some "eval output differs"

type pair = { wall_s : float; explore_out : string; enumerate_out : string; ok : bool }

type result = {
  setup_s : float;
  pairs : float array;         (* wall seconds of each explore + enumerate *)
  designs_per_s : float;
  evals_per_s : float;
  peak_rss_mb : float;
  attempted : int;
  failed : int;
  first_error : string;
}

let setup_runs = 25

let run ~mccm ~seed ~seconds =
  let evals =
    List.init setup_runs (fun i -> Proc.run_capture ~name:(Printf.sprintf "eval-%d" i) (eval_argv ~mccm))
  in
  (* Pairs until [seconds] is about used: stop when another pair would
     overshoot by more than half of one. *)
  let t0 = Proc.now_s () in
  let rec loop acc =
    let used = Proc.now_s () -. t0 in
    match acc with
    | last :: _ when used +. (last.wall_s /. 2.0) >= seconds -> List.rev acc
    | _ ->
      let ok1, w1, o1 = Proc.run_capture ~name:"explore" (explore_argv ~mccm ~seed) in
      let ok2, w2, o2 = Proc.run_capture ~name:"enumerate" (enumerate_argv ~mccm) in
      loop ({ wall_s = w1 +. w2; explore_out = o1; enumerate_out = o2; ok = ok1 && ok2 } :: acc)
  in
  let pairs = loop [] in
  let peak_rss_mb = float_of_int (Proc.children_maxrss_kb ()) /. 1024.0 in
  (* Checked after the timed window, against in-process searches. *)
  let ex = expected ~seed in
  let errors =
    List.filter_map Fun.id
      (List.map
         (fun (ok, _, out) -> if ok then check_eval ex out else Some "eval failed")
         evals
      @ List.concat_map
          (fun p ->
            if not p.ok then [ Some "explore/enumerate exited non-zero" ]
            else [ check_explore ex p.explore_out; check_enumerate ex p.enumerate_out ])
          pairs)
  in
  let en, ev, _, _ = ex.enum_counts in
  let walls = Array.of_list (List.map (fun p -> p.wall_s) pairs) in
  let per_s n = Proc.median (Array.map (fun w -> float_of_int n /. w) walls) in
  {
    setup_s = Proc.median (Array.of_list (List.map (fun (_, w, _) -> w) evals));
    pairs = walls;
    designs_per_s = per_s (samples + en);
    evals_per_s = per_s (samples + ev);
    peak_rss_mb;
    attempted = setup_runs + (2 * List.length pairs);
    failed = List.length errors;
    first_error = (match errors with e :: _ -> e | [] -> "");
  }
