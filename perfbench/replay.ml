(* The traced run: each workload's inputs replayed in-process through
   each layer's public functions, every call wrapped in a benchmark-side
   span ({!Spans}).  Per-layer values come from span self times and from
   counts the program already exposes (the daemon's [stats] and [recent]
   ops, [Eval_session.stats], [search_stats]).  Layers a workload does
   not exercise read 0. *)

let span = Spans.with_span
let us_of_ns ns = float_of_int ns /. 1e3
let ratio num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den

(* Mean self time per call of the spans named [name], microseconds; 0
   when the layer was not called. *)
let mean_self rows name =
  match List.assoc_opt name rows with
  | Some (calls, self_ns, _) -> us_of_ns self_ns /. float_of_int calls
  | None -> 0.0

let calls rows name =
  match List.assoc_opt name rows with Some (n, _, _) -> n | None -> 0

let hit_ratios (stats : Mccm.Eval_session.stats list) =
  let sum f = List.fold_left (fun a s -> a + f s) 0 stats in
  Mccm.Eval_session.
    [
      ("mccm.arch_hit_ratio", ratio (sum (fun s -> s.arch_hits)) (sum (fun s -> s.evaluations)));
      ( "mccm.seg_hit_ratio",
        ratio (sum (fun s -> s.seg_hits)) (sum (fun s -> s.seg_hits + s.seg_misses)) );
      ( "mccm.plan_hit_ratio",
        ratio (sum (fun s -> s.plan_hits)) (sum (fun s -> s.plan_hits + s.plan_misses)) );
    ]

(* Run [f] with spans on in a forked child (empty process-global memos,
   as in a fresh process), on its own trace track; its spans join this
   process's. *)
let in_fresh_process ~track f =
  let v, xs =
    Proc.in_child (fun () ->
        Spans.reset ();
        Spans.track := track;
        Spans.recording := true;
        let v = f () in
        Spans.recording := false;
        (v, Spans.all ()))
  in
  Spans.import xs;
  v

(* Run [f] on every element of [xs] twice, once untraced and once
   traced, alternating which goes first.  The tracing overhead is the
   median traced-minus-untraced difference (robust to one-off lazy
   initialisation) per recorded span. *)
let overhead_per_span f xs =
  let before = !Spans.count in
  let timed traced x =
    Spans.recording := traced;
    let t0 = Spans.now_ns () in
    f x;
    let dt = Spans.now_ns () - t0 in
    Spans.recording := false;
    dt
  in
  let diffs =
    List.mapi
      (fun i x ->
        if i land 1 = 0 then
          let u = timed false x in
          timed true x - u
        else
          let t = timed true x in
          t - timed false x)
      xs
  in
  let n = List.length xs in
  let spans_per_call = float_of_int (!Spans.count - before) /. float_of_int (max 1 n) in
  Proc.median (Array.of_list (List.map us_of_ns diffs)) /. Float.max 1.0 spans_per_call

(* Builder and evaluator on [designs] in a fresh process: a table per
   model, a cold [Build.build] pass (empty process-global memos), the
   same builds again (warm), then [Evaluate.run] on the built designs. *)
let build_layers ~track designs =
  in_fresh_process ~track (fun () ->
      let per_model = Hashtbl.create 8 in
      let context model =
        let key = model.Cnn.Model.abbreviation in
        match Hashtbl.find_opt per_model key with
        | Some c -> c
        | None ->
          let c =
            ( model,
              span "cnn.table_build" (fun () -> Cnn.Table.of_model model),
              Builder.Build.create_cache () )
          in
          Hashtbl.add per_model key c;
          c
      in
      let build name =
        List.map
          (fun (model, board, archi) ->
            let model, table, cache = context model in
            (table, span name (fun () -> Builder.Build.build ~cache ~table model board archi)))
          designs
      in
      ignore (build "builder.build_cold");
      List.iter
        (fun (table, b) -> ignore (span "mccm.evaluate" (fun () -> Mccm.Evaluate.run ~table b)))
        (build "builder.build_warm"))

let builder_metrics rows =
  [
    ("cnn.table_build_us", mean_self rows "cnn.table_build");
    ("builder.build_cold_us", mean_self rows "builder.build_cold");
    ("builder.build_warm_us", mean_self rows "builder.build_warm");
    ("mccm.evaluate_us", mean_self rows "mccm.evaluate");
  ]

(* ------------------------------------------------------------ serve *)

(* The daemon keys its result cache on the raw evaluate payload; this
   mirrors that key (length-prefixed fields) so the replay probes
   [Util.Cache] the way the daemon's reader does. *)
let raw_key params =
  let b = Buffer.create 96 in
  List.iter
    (fun k ->
      match Util.Json.member k params with
      | Some (Util.Json.Str s) -> Printf.bprintf b "%d:%s" (String.length s) s
      | _ -> Buffer.add_char b '-')
    [ "case"; "model"; "model_text"; "board"; "arch" ];
  Buffer.contents b

type env = {
  sessions : (string, Mccm.Eval_session.t) Hashtbl.t;
  cache : string Util.Cache.t option;
}

let str params k = Option.get (Option.bind (Util.Json.member k params) Util.Json.string_)

(* One evaluate frame down the daemon's reader -> worker path: parse,
   then either a result-cache hit (pre-rendered splice) or resolution
   (zoo lookup, session key, architecture parse), a warm-session
   evaluation and rendering.  Returns the metrics it evaluated, if any. *)
let serve_request env ~rid line =
  span ~rid "serve.request" (fun () ->
      let req =
        match span "serve.parse" (fun () -> Serve.Protocol.parse_request line) with
        | Ok r -> r
        | Error (_, _, msg) -> failwith msg
      in
      let params = req.Serve.Protocol.params in
      let hit =
        match env.cache with
        | None -> None
        | Some cache -> (
          let key = raw_key params in
          match span "util.cache_find" (fun () -> Util.Cache.find cache key) with
          | Some rendered ->
            Some (Printf.sprintf "{\"id\":%s,\"ok\":true,\"result\":%s}"
                    (Util.Json.to_string req.Serve.Protocol.id) rendered)
          | None -> None)
      in
      match hit with
      | Some _ -> None
      | None ->
        let model =
          Option.get (span "cnn.zoo_lookup" (fun () -> Cnn.Model_zoo.by_abbreviation (str params "model")))
        in
        let board = Option.get (Platform.Board.by_name (str params "board")) in
        let key = board.Platform.Board.name ^ "|" ^ span "cnn.session_key" (fun () -> Cnn.Model_io.to_string model) in
        let archi =
          match span "arch.parse" (fun () -> Arch.Shorthand.parse model (str params "arch")) with
          | Ok a -> a
          | Error msg -> failwith msg
        in
        let session =
          match Hashtbl.find_opt env.sessions key with
          | Some s -> s
          | None ->
            let s = Mccm.Eval_session.create model board in
            Hashtbl.add env.sessions key s;
            s
        in
        let m =
          List.hd
            (span "mccm.session_eval" (fun () ->
                 Mccm.Eval_session.metrics_batch ~store_arch:false session [ archi ]))
        in
        ignore
          (span "serve.render" (fun () ->
               Serve.Protocol.ok_frame ~id:req.Serve.Protocol.id
                 (Util.Json.Obj [ ("metrics", Serve.Protocol.json_of_metrics m) ])));
        Some m)

let serve_layers = [
  ("serve.parse", "serve.parse_us");
  ("util.cache_find", "util.cache_find_us");
  ("cnn.zoo_lookup", "cnn.zoo_lookup_us");
  ("cnn.session_key", "cnn.session_key_us");
  ("arch.parse", "arch.parse_us");
  ("mccm.session_eval", "mccm.session_eval_us");
  ("serve.render", "serve.render_us");
]

(* Five rounds of the uniform mix; a fixed count keeps the replay's
   session counters identical from run to run. *)
let replayed = 2100

type result = {
  metrics : (string * float) list;
  attempted : int;
  failed : int;
  first_error : string;
}

let recent_records conn =
  match
    Util.Json.member "records"
      (Serve_load.control conn "recent" (Util.Json.Obj [ ("n", Util.Json.Num 512.) ]))
  with
  | Some (Util.Json.Arr rs) ->
    (* Evaluations a worker ran; cache hits carry worker -1. *)
    List.filter
      (fun r ->
        Util.Json.member "op" r = Some (Util.Json.Str "evaluate")
        && Option.bind (Util.Json.member "worker" r) Util.Json.int_ <> Some (-1))
      rs
  | _ -> []

let p50_us records field =
  Proc.median
    (Array.of_list
       (List.map
          (fun r ->
            float_of_int (Option.value ~default:0 (Option.bind (Util.Json.member field r) Util.Json.int_))
            /. 1e3)
          records))

(* The serve workloads.  The daemon runs the set-up pass and the same
   two phases as the untraced run; the benchmark reads [stats] and
   [recent] around them.  The set-up pass and the latency phase's
   first [replayed] requests are then replayed in-process.  A layer the
   timed requests skip (on serve_hot, everything behind a cache hit) is
   reported from the set-up pass, where the workload pays for it. *)
let serve ~mccm ~mix ~draw ~seconds refs =
  let cache = mix = Serve_load.Zipf in
  let ck = Serve_load.checker refs in
  let universe = Array.init (Array.length Serve_load.universe) Fun.id in
  let d, conn = Serve_load.start_daemon ~mccm in
  let cl = Serve_load.make_client conn ck ~cache in
  let stats () = Serve_load.control conn "stats" Util.Json.Null in
  let s_pre = stats () in
  Serve_load.pass cl universe;
  let s_setup = stats () in
  let setup_records = recent_records conn in
  ignore (Serve_load.saturate cl ~draw:(draw 0) ~seconds:(0.3 *. seconds) : float array);
  let s_sat = stats () in
  let lat, us =
    Serve_load.latencies ~min_samples:replayed cl ~mix ~draw:(draw 1) ~seconds:(0.3 *. seconds)
  in
  let s_end = stats () in
  let timed_records = recent_records conn in
  let stopped = Serve_load.stop_daemon d conn in
  let delta a b name = Serve_load.counter b name - Serve_load.counter a name in
  let batch_mean a b = ratio (delta a b "batched") (delta a b "batches") in
  (* Builder, evaluator and table on the universe, in a fresh process. *)
  build_layers ~track:1 (Array.to_list (Array.map Serve_load.resolve Serve_load.universe));
  (* In-process replay: the set-up pass (cold sessions, cache filled as
     the daemon's was), then the timed requests, traced and untraced. *)
  let env = { sessions = Hashtbl.create 32; cache = None } in
  let params = Array.map (Serve_load.params_json ~cache) Serve_load.universe in
  let frame_of i u = Serve_load.frame ~params:params.(u) i in
  let n = replayed in
  Spans.recording := true;
  Array.iter (fun u -> ignore (serve_request env ~rid:(n + u) (frame_of u u))) universe;
  Spans.recording := false;
  let env =
    if not cache then env
    else begin
      let c =
        Util.Cache.create ~capacity:(Serve.Daemon.default ~socket_path:"").Serve.Daemon.cache_capacity ()
      in
      Array.iteri
        (fun u t ->
          let params = Result.get_ok (Util.Json.parse (Serve_load.params_json ~cache t)) in
          let rendered =
            Util.Json.to_string (Util.Json.Obj [ ("metrics", Serve.Protocol.json_of_metrics refs.(u)) ])
          in
          ignore (Util.Cache.add c (raw_key params) rendered))
        Serve_load.universe;
      { env with cache = Some c }
    end
  in
  let frames = List.init n (fun i -> (i, frame_of i us.(i))) in
  let wrong = ref 0 in
  let replay (i, line) =
    match serve_request env ~rid:i line with
    | Some m when m <> refs.(us.(i)) -> incr wrong
    | _ -> ()
  in
  let overhead = overhead_per_span replay frames in
  (* Per timed request: measured round trip = named layer self times +
     unattributed (socket I/O, framing, thread hand-offs, the daemon's
     own bookkeeping).  The span bookkeeping must close exactly: a
     request span's self time plus its children's self times is its
     duration. *)
  let xs = Spans.all () in
  let self = Spans.self_times xs in
  let timed s = s.Spans.rid >= 0 && s.Spans.rid < n in
  let per_req = Array.make n 0 in
  let inside = Array.make n 0 in
  Array.iteri
    (fun i s ->
      if timed s then begin
        let r = s.Spans.rid in
        if s.Spans.parent < 0 then inside.(r) <- inside.(r) + self.(i) - Spans.duration s
        else begin
          per_req.(r) <- per_req.(r) + self.(i);
          inside.(r) <- inside.(r) + self.(i)
        end
      end)
    xs;
  let broken = ref 0 in
  Array.iter (fun v -> if v <> 0 then incr broken) inside;
  let measured = Array.init n (fun i -> lat.(i) *. 1e6) in
  let unattributed = Array.init n (fun i -> measured.(i) -. us_of_ns per_req.(i)) in
  Array.iteri
    (fun i u ->
      if Float.abs (us_of_ns per_req.(i) +. u -. measured.(i)) > 1e-6 *. measured.(i) then incr broken)
    unattributed;
  let timed_rows = Spans.table ~keep:timed xs in
  let setup_rows = Spans.table ~keep:(fun s -> s.Spans.rid >= n) xs in
  let layer name =
    if calls timed_rows name > 0 then mean_self timed_rows name else mean_self setup_rows name
  in
  let hits = delta s_setup s_end "cache_hits" and misses = delta s_setup s_end "cache_misses" in
  let worker_records = if timed_records <> [] then timed_records else setup_records in
  let metrics =
    List.map (fun (span_name, metric) -> (metric, layer span_name)) serve_layers
    @ [
        ("serve.request_us", Proc.mean measured);
        ("serve.unattributed_us", Proc.mean unattributed);
        ("serve.queue_wait_us", p50_us worker_records "queue_ns");
        ("serve.worker_eval_us", p50_us worker_records "eval_ns");
        ( "serve.batch_mean",
          if delta s_setup s_sat "batches" > 0 then batch_mean s_setup s_sat
          else batch_mean s_pre s_setup );
        ("serve.cache_hit_ratio", ratio hits (hits + misses));
        ("trace.overhead_us", overhead);
      ]
    @ builder_metrics (Spans.table xs)
    @ hit_ratios (Hashtbl.fold (fun _ s acc -> Mccm.Eval_session.stats s :: acc) env.sessions [])
  in
  let errors =
    (if ck.Serve_load.failed > 0 then [ ck.Serve_load.first_error ] else [])
    @ (if !wrong > 0 then [ "in-process replay disagrees with the reference" ] else [])
    @ (if !broken > 0 then [ Printf.sprintf "%d requests whose span times do not add up" !broken ] else [])
    @ if stopped then [] else [ "mccm serve did not drain cleanly" ]
  in
  {
    metrics;
    attempted = ck.Serve_load.checked + n;
    failed = ck.Serve_load.failed + !wrong + !broken + (if stopped then 0 else 1);
    first_error = (match errors with e :: _ -> e | [] -> "");
  }

(* -------------------------------------------------------------- dse *)

let heap_words () = (Gc.quick_stat ()).Gc.heap_words

let dse ~seed =
  let model = Dse_load.model () and board = Dse_load.board () in
  let explored, explore_stats, explore_heap =
    in_fresh_process ~track:1 (fun () ->
        let session = Mccm.Eval_session.create model board in
        let h0 = heap_words () in
        let r =
          span "dse.explore" (fun () ->
              Dse.Explore.run ~seed:(Int64.of_int seed) ~session ~samples:Dse_load.samples model board)
        in
        (List.map (fun e -> e.Dse.Explore.spec) r.Dse.Explore.evaluated, r.Dse.Explore.stats,
         heap_words () - h0))
  in
  let st, enum_stats, enum_heap =
    in_fresh_process ~track:2 (fun () ->
        let session = Mccm.Eval_session.create model board in
        let h0 = heap_words () in
        let _, st =
          span "dse.enumerate" (fun () ->
              Dse.Enumerate.exhaustive_best ~session ~objective:`Throughput ~ces:Dse_load.ces model board)
        in
        (st, Mccm.Eval_session.stats session, heap_words () - h0))
  in
  let designs =
    List.filteri (fun i _ -> i < 500) explored
    |> List.map (fun spec -> (model, board, Arch.Custom.arch_of_spec model spec))
  in
  build_layers ~track:3 designs;
  let overhead =
    in_fresh_process ~track:4 (fun () ->
        (* Only the bound calls are traced (and timed untraced). *)
        Spans.recording := false;
        let table = Cnn.Table.of_model model in
        let bounds = Dse.Bounds.create table board in
        let specs =
          Dse.Enumerate.enumerate_specs ~num_layers:(Cnn.Table.num_layers table) ~ces:Dse_load.ces
            ~max_specs:Dse_load.max_specs
        in
        overhead_per_span
          (fun spec -> ignore (span "dse.bounds" (fun () -> Dse.Bounds.throughput_upper_bound bounds spec)))
          specs)
  in
  let xs = Spans.all () in
  let rows = Spans.table xs in
  let dur name =
    match List.assoc_opt name rows with Some (_, _, d) -> float_of_int d /. 1e9 | None -> 0.0
  in
  let metrics =
    [
      ("dse.explore_s", dur "dse.explore");
      ("dse.enumerate_s", dur "dse.enumerate");
      ("dse.bounds_us", mean_self rows "dse.bounds");
      ("dse.prune_ratio", ratio st.Dse.Enumerate.pruned st.Dse.Enumerate.enumerated);
      ("dse.evaluated", float_of_int st.Dse.Enumerate.evaluated);
      ("dse.heap_growth_mwords", float_of_int (explore_heap + enum_heap) /. 1e6);
      ("trace.overhead_us", overhead);
    ]
    @ builder_metrics rows
    @ hit_ratios [ explore_stats; enum_stats ]
  in
  let ops = calls rows "dse.explore" + calls rows "dse.enumerate" + List.length designs in
  { metrics; attempted = ops; failed = 0; first_error = "" }
