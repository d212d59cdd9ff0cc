(* The repository benchmark.

     perf.exe --mccm PATH --workload NAME --seed N --seconds S --trace 0|1
     perf.exe --mccm PATH --self-test

   Workloads: serve_cold, serve_hot (load on a `mccm serve` subprocess)
   and dse_cold (fresh `mccm explore` / `mccm enumerate` processes).
   With --trace 0 the run measures the end-to-end metrics; with
   --trace 1 it replays the workload's inputs in-process under
   benchmark-side spans and reports the per-layer metrics.  The last
   line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
   See perfbench/README.md for the rationale. *)

let end_to_end =
  [
    ("evals_per_s", "1/s");
    ("designs_per_s", "1/s");
    ("latency_p50_ms", "ms");
    ("setup_s", "s");
    ("peak_rss_mb", "MiB");
  ]

let per_layer =
  [
    ("serve.parse_us", "us");
    ("serve.render_us", "us");
    ("serve.request_us", "us");
    ("serve.unattributed_us", "us");
    ("serve.queue_wait_us", "us");
    ("serve.worker_eval_us", "us");
    ("serve.batch_mean", "count");
    ("serve.cache_hit_ratio", "ratio");
    ("cnn.zoo_lookup_us", "us");
    ("cnn.session_key_us", "us");
    ("cnn.table_build_us", "us");
    ("arch.parse_us", "us");
    ("util.cache_find_us", "us");
    ("mccm.session_eval_us", "us");
    ("mccm.evaluate_us", "us");
    ("mccm.arch_hit_ratio", "ratio");
    ("mccm.seg_hit_ratio", "ratio");
    ("mccm.plan_hit_ratio", "ratio");
    ("builder.build_cold_us", "us");
    ("builder.build_warm_us", "us");
    ("dse.explore_s", "s");
    ("dse.enumerate_s", "s");
    ("dse.bounds_us", "us");
    ("dse.prune_ratio", "ratio");
    ("dse.evaluated", "count");
    ("dse.heap_growth_mwords", "Mwords");
    ("trace.overhead_us", "us");
  ]

let workloads = [ "serve_cold"; "serve_hot"; "dse_cold" ]

(* ------------------------------------------------------ fingerprint *)

let first_line_with prefix path =
  match Proc.read_file path with
  | exception Sys_error _ -> None
  | text ->
    List.find_map
      (fun l ->
        if String.starts_with ~prefix l then
          match String.index_opt l ':' with
          | Some i -> Some (String.trim (String.sub l (i + 1) (String.length l - i - 1)))
          | None -> None
        else None)
      (String.split_on_char '\n' text)

(* The commit, read from .git when the checkout is a git work tree. *)
let git_commit () =
  let read p = try Some (String.trim (Proc.read_file p)) with Sys_error _ -> None in
  match read ".git/HEAD" with
  | None -> "unknown (not a git checkout)"
  | Some head when String.starts_with ~prefix:"ref: " head -> (
    let ref_ = String.sub head 5 (String.length head - 5) in
    match read (Filename.concat ".git" ref_) with
    | Some c -> c
    | None -> (
      match read ".git/packed-refs" with
      | Some packed ->
        List.find_map
          (fun l ->
            match String.split_on_char ' ' l with
            | [ c; r ] when r = ref_ -> Some c
            | _ -> None)
          (String.split_on_char '\n' packed)
        |> Option.value ~default:"unknown"
      | None -> "unknown"))
  | Some head -> head

let start_state = function
  | "serve_cold" ->
    "warmed: one warm-up pass over the 420 requests (sessions built), paid in setup_s"
  | "serve_hot" ->
    "warmed: one warm-up pass over the 420 requests primes the result cache, paid in setup_s"
  | _ -> "cold: every CLI process starts with empty process-global builder memos"

let fingerprint ~workload ~seed ~seconds ~trace =
  Util.Json.(
    to_string
      (Obj
         [
           ("nproc", Num (float_of_int (Domain.recommended_domain_count ())));
           ("ocaml", Str Sys.ocaml_version);
           ( "cpu",
             Str (Option.value ~default:"unknown" (first_line_with "model name" "/proc/cpuinfo")) );
           ("commit", Str (git_commit ()));
           ("daemon_workers", Num (float_of_int (Serve_load.daemon_workers ())));
           ("workload", Str workload);
           ("start_state", Str (start_state workload));
           ("seed", Num (float_of_int seed));
           ("seconds", Num seconds);
           ("trace", Bool trace);
         ]))

(* ----------------------------------------------------------- result *)

let result_line ~correct ~attempted ~failed metrics =
  Util.Json.(
    to_string
      (Obj
         [
           ("correct", Bool correct);
           ("attempted", Num (float_of_int attempted));
           ("failed", Num (float_of_int failed));
           ( "metrics",
             Obj (List.map (fun (n, u, v) -> (n, Obj [ ("value", Num v); ("unit", Str u) ])) metrics) );
         ]))

(* [table_only] values are printed but left out of the JSON: on a shared
   VM they swing by more than any bound BENCHMARK.json may set (see
   perfbench/README.md). *)
let report ~catalogue ~attempted ~failed ~first_error ?(table_only = []) values =
  let metrics =
    List.map
      (fun (name, unit) -> (name, unit, Option.value ~default:0.0 (List.assoc_opt name values)))
      catalogue
  in
  List.iter (fun (n, u, v) -> Printf.printf "  %-24s %14.6g %s\n" n v u) metrics;
  List.iter (fun (n, u, v) -> Printf.printf "  %-24s %14.6g %s (table only)\n" n v u) table_only;
  let share = float_of_int failed /. float_of_int (max 1 attempted) in
  Printf.printf "  %-24s %14.6g ratio (%d of %d operations; table only)\n" "failed_share" share
    failed attempted;
  if first_error <> "" then Printf.printf "  first failure: %s\n" first_error;
  let correct = failed = 0 in
  print_endline (result_line ~correct ~attempted ~failed metrics);
  if correct then 0 else 1

(* ------------------------------------------------------------- runs *)

let serve_setups = 3

let mix_of = function "serve_hot" -> Serve_load.Zipf | _ -> Serve_load.Uniform

(* A fresh seeded stream per phase, so each phase starts on a round. *)
let draw_of ~workload ~seed phase =
  Serve_load.drawer (mix_of workload)
    (Random.State.make [| seed; Hashtbl.hash workload; phase |])

(* p99 over windows of whole rounds (at least 2000 samples, so >= 20
   beyond each p99), median over the windows: robust to a short burst
   of host noise landing in one part of the phase. *)
let p99_min_samples = 2000

let window_p99s ~round lat =
  let units = Array.length lat / round in
  let per = (p99_min_samples + round - 1) / round in
  if units < per then [| Proc.percentile 99.0 lat |]
  else
    let k = units / per in
    Array.init k (fun i ->
        let lo = i * units / k * round and hi = (i + 1) * units / k * round in
        Proc.percentile 99.0 (Array.sub lat lo (hi - lo)))

(* serve_cold / serve_hot, untraced.  Each of [serve_setups] daemons is
   set up (timed), then runs a saturation and a latency phase, so the
   measured time is spread over the whole run. *)
let serve_run ~mccm ~workload ~seed ~seconds =
  let mix = mix_of workload in
  let cache = mix = Serve_load.Zipf in
  let refs = Serve_load.references () in
  let ck = Serve_load.checker refs in
  let draw = draw_of ~workload ~seed in
  let phase = seconds /. float_of_int serve_setups /. 2.0 in
  let runs =
    List.init serve_setups (fun i ->
        let d, cl, setup = Serve_load.set_up ~mccm ~cache ck in
        let rates = Serve_load.saturate cl ~draw:(draw (2 * i)) ~seconds:phase in
        let lat, _ = Serve_load.latencies cl ~mix ~draw:(draw ((2 * i) + 1)) ~seconds:phase in
        let rss = Proc.vm_hwm_mib d.Serve_load.pid in
        if not (Serve_load.stop_daemon d cl.Serve_load.conn) then
          Serve_load.fail ck "mccm serve did not drain cleanly";
        (setup, rates, lat, rss))
  in
  let setups = Array.of_list (List.map (fun (s, _, _, _) -> s) runs) in
  let rates = Array.concat (List.map (fun (_, r, _, _) -> r) runs) in
  let lats = List.map (fun (_, _, l, _) -> l) runs in
  let all = Array.concat lats in
  let n = Array.length all in
  let round = Serve_load.round mix in
  let p99s = Array.concat (List.map (window_p99s ~round) lats) in
  Printf.printf "  latency samples: %d; p99 is the median over %d windows of >= %d samples\n" n
    (Array.length p99s) p99_min_samples;
  let rate = Proc.median rates in
  report ~catalogue:end_to_end ~attempted:ck.Serve_load.checked ~failed:ck.Serve_load.failed
    ~first_error:ck.Serve_load.first_error
    ~table_only:[ ("latency_p99_ms", "ms", 1e3 *. Proc.median p99s) ]
    [
      ("evals_per_s", rate);
      ("designs_per_s", rate);
      ("latency_p50_ms", 1e3 *. Proc.percentile 50.0 all);
      ("setup_s", Proc.median setups);
      ("peak_rss_mb", List.fold_left (fun m (_, _, _, r) -> Float.max m r) 0.0 runs);
    ]

let dse_run ~mccm ~seed ~seconds =
  let r = Dse_load.run ~mccm ~seed ~seconds in
  let ms = Array.map (fun w -> 1e3 *. w) r.Dse_load.pairs in
  Printf.printf "  explore+enumerate pairs: %d\n" (Array.length ms);
  report ~catalogue:end_to_end ~attempted:r.Dse_load.attempted ~failed:r.Dse_load.failed
    ~first_error:r.Dse_load.first_error
    ~table_only:[ ("latency_p99_ms", "ms", Proc.percentile 99.0 ms) ]
    [
      ("evals_per_s", r.Dse_load.evals_per_s);
      ("designs_per_s", r.Dse_load.designs_per_s);
      ("latency_p50_ms", Proc.median ms);
      ("setup_s", r.Dse_load.setup_s);
      ("peak_rss_mb", r.Dse_load.peak_rss_mb);
    ]

let traced_run ~mccm ~workload ~seed ~seconds =
  let r =
    if workload = "dse_cold" then Replay.dse ~seed
    else
      Replay.serve ~mccm ~mix:(mix_of workload) ~draw:(draw_of ~workload ~seed) ~seconds
        (Serve_load.references ())
  in
  Proc.ensure_run_dir ();
  let base = Filename.concat Proc.run_dir (Printf.sprintf "%s-%d" workload seed) in
  let xs = Spans.all () in
  Spans.write_chrome ~path:(base ^ ".trace.json") xs;
  let rows = Spans.table xs in
  let table =
    Printf.sprintf "%-24s %8s %14s %14s\n" "span" "calls" "self_us" "self_us/call"
    ^ String.concat ""
        (List.map
           (fun (name, (calls, self_ns, _)) ->
             Printf.sprintf "%-24s %8d %14.1f %14.3f\n" name calls (float_of_int self_ns /. 1e3)
               (float_of_int self_ns /. 1e3 /. float_of_int calls))
           rows)
  in
  Proc.write_file (base ^ ".layers.txt") table;
  print_string table;
  Printf.printf "  chrome trace: %s.trace.json\n" base;
  report ~catalogue:per_layer ~attempted:r.Replay.attempted ~failed:r.Replay.failed
    ~first_error:r.Replay.first_error r.Replay.metrics

(* ---------------------------------------------------------- self-test *)

(* A reply frame recorded from the daemon passes the checker; the same
   frame with one digit of one float changed is counted as a failure. *)
let corrupted_reply_is_caught ~mccm =
  let u = 0 in
  let refs = Serve_load.references () in
  let ck = Serve_load.checker refs in
  let d, conn = Serve_load.start_daemon ~mccm in
  let cl = Serve_load.make_client conn ck ~cache:false in
  Serve_load.issue cl u;
  let line = Serve_load.recv_line conn in
  ignore (Serve_load.stop_daemon d conn);
  let check line =
    let ck = Serve_load.checker refs in
    (match Serve_load.reply_id line with
    | Some (_, k) -> Serve_load.check_reply ck u line k
    | None -> Serve_load.fail ck "no id");
    ck.Serve_load.failed
  in
  let key = "\"latency_s\":" in
  let rec find i = if String.sub line i (String.length key) = key then i else find (i + 1) in
  let at = find 0 + String.length key + 3 in
  let corrupted =
    String.mapi (fun i c -> if i = at then (if c = '9' then '1' else Char.chr (Char.code c + 1)) else c) line
  in
  Printf.printf "recorded:  %s\ncorrupted: %s\n" line corrupted;
  check line = 0 && check corrupted = 1

let last_line s =
  match List.rev (List.filter (( <> ) "") (String.split_on_char '\n' s)) with
  | l :: _ -> l
  | [] -> ""

(* Every metric BENCHMARK.json names appears in a smoke run's result,
   with its unit, and the run is correct. *)
let smoke ~mccm ~spec workload trace =
  let section = if trace then "per_layer" else "end_to_end" in
  let named =
    match Util.Json.member section spec with
    | Some (Util.Json.Arr xs) ->
      List.map
        (fun m ->
          ( Option.get (Option.bind (Util.Json.member "name" m) Util.Json.string_),
            Option.get (Option.bind (Util.Json.member "unit" m) Util.Json.string_) ))
        xs
    | _ -> failwith ("BENCHMARK.json has no " ^ section)
  in
  let ok, wall, out =
    Proc.run_capture ~name:("smoke-" ^ workload)
      [| Sys.executable_name; "--mccm"; mccm; "--workload"; workload; "--seed"; "1";
         "--seconds"; "1"; "--trace"; (if trace then "1" else "0") |]
  in
  let res = Util.Json.parse (last_line out) in
  let problems =
    match res with
    | Error msg -> [ "result is not JSON: " ^ msg ]
    | Ok j ->
      (if Util.Json.member "correct" j = Some (Util.Json.Bool true) then [] else [ "not correct" ])
      @ List.filter_map
          (fun (name, unit) ->
            match Option.bind (Util.Json.member "metrics" j) (Util.Json.member name) with
            | Some m
              when Util.Json.member "unit" m = Some (Util.Json.Str unit)
                   && Option.bind (Util.Json.member "value" m) Util.Json.number <> None ->
              None
            | _ -> Some ("missing or wrong unit: " ^ name))
          named
  in
  let problems = if ok then problems else "exit code not 0" :: problems in
  Printf.printf "smoke %-10s trace=%b %6.1f s: %s\n%!" workload trace wall
    (if problems = [] then "ok" else String.concat "; " problems);
  problems = []

let self_test ~mccm =
  let spec =
    match Util.Json.parse (Proc.read_file "BENCHMARK.json") with
    | Ok j -> j
    | Error msg -> failwith ("BENCHMARK.json: " ^ msg)
  in
  let caught = corrupted_reply_is_caught ~mccm in
  Printf.printf "corrupted reply counted as a failure: %b\n%!" caught;
  let smokes =
    List.concat_map
      (fun w ->
        let untraced = smoke ~mccm ~spec w false in
        [ untraced; smoke ~mccm ~spec w true ])
      workloads
  in
  if caught && List.for_all Fun.id smokes then begin
    print_endline "self-test passed";
    0
  end
  else begin
    print_endline "self-test FAILED";
    1
  end

(* ------------------------------------------------------------- main *)

let () =
  let mccm = ref "" and workload = ref "" and seed = ref 1 and seconds = ref 10.0
  and trace = ref 0 and self = ref false in
  Arg.parse
    [
      ("--mccm", Arg.Set_string mccm, "PATH mccm executable");
      ("--workload", Arg.Set_string workload, "NAME " ^ String.concat "|" workloads);
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds per run");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or traced per-layer (1) run");
      ("--self-test", Arg.Set self, " smoke every workload and check the checker");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perf.exe --mccm PATH (--workload NAME --seed N --seconds S --trace 0|1 | --self-test)";
  if !mccm = "" then (prerr_endline "--mccm is required"; exit 2);
  (* A reply write to a closed peer must surface as an error, not kill us. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* Interrupted runs still stop the processes they started (at_exit). *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 130)))
    [ Sys.sigint; Sys.sigterm ];
  let code =
    if !self then self_test ~mccm:!mccm
    else if not (List.mem !workload workloads) then (
      prerr_endline ("unknown workload " ^ !workload);
      2)
    else begin
      print_endline ("fingerprint: " ^ fingerprint ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1));
      match (!workload, !trace) with
      | w, 1 -> traced_run ~mccm:!mccm ~workload:w ~seed:!seed ~seconds:!seconds
      | "dse_cold", _ -> dse_run ~mccm:!mccm ~seed:!seed ~seconds:!seconds
      | w, _ -> serve_run ~mccm:!mccm ~workload:w ~seed:!seed ~seconds:!seconds
    end
  in
  exit code
