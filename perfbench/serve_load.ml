(* The serve workloads: load on a real `mccm serve` subprocess from this
   one thread over one connection, with every reply checked against
   in-process evaluation. *)

(* ------------------------------------------------ request universe *)

(* The paper's Table III models x the four boards x three baseline
   styles at 2..8 CEs: 420 distinct evaluate requests. *)
let models = [| "Res152"; "Res50"; "XCp"; "Dns121"; "MobV2" |]
let boards = [| "ZC706"; "VCU108"; "VCU110"; "ZCU102" |]
let styles = [| "hybrid"; "segmented"; "segmentedrr" |]

type target = { model : string; board : string; arch : string }

let universe =
  Array.of_list
    (List.concat_map
       (fun model ->
         List.concat_map
           (fun board ->
             List.concat_map
               (fun style ->
                 List.init 7 (fun i ->
                     { model; board; arch = Printf.sprintf "%s/%d" style (i + 2) }))
               (Array.to_list styles))
           (Array.to_list boards))
       (Array.to_list models))

let resolve t =
  let model = Option.get (Cnn.Model_zoo.by_abbreviation t.model) in
  let board = Option.get (Platform.Board.by_name t.board) in
  match Arch.Shorthand.parse model t.arch with
  | Ok a -> (model, board, a)
  | Error msg -> failwith (Printf.sprintf "%s on %s: %s" t.arch t.model msg)

(* The expected reply for every request, computed in-process and
   outside any timed window. *)
let references () =
  Array.map
    (fun t ->
      let model, board, a = resolve t in
      Mccm.Evaluate.metrics model board a)
    universe

let params_json ~cache t =
  Util.Json.(
    to_string
      (Obj
         ([ ("model", Str t.model); ("board", Str t.board); ("arch", Str t.arch) ]
         @ if cache then [] else [ ("cache", Bool false) ])))

let frame ~params id =
  Printf.sprintf "{\"id\":%d,\"op\":\"evaluate\",\"params\":%s}" id params

(* ----------------------------------------------------------- draws *)

type mix = Uniform | Zipf

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

(* Seeded request stream over universe indices.  Uniform draws go in
   rounds: each round is a fresh seeded permutation of the universe, so
   every request is uniformly distributed and any whole number of
   rounds holds each request equally often (request costs differ by
   ~10x, so an i.i.d. mix would move the tail percentiles from run to
   run).  Zipf(s=1) ranks a seeded permutation of the universe, so each
   seed has its own hot keys; draws are independent. *)
let drawer mix st =
  let n = Array.length universe in
  let perm = Array.init n Fun.id in
  shuffle st perm;
  match mix with
  | Uniform ->
    let pos = ref 0 in
    fun () ->
      if !pos = n then begin
        shuffle st perm;
        pos := 0
      end;
      incr pos;
      perm.(!pos - 1)
  | Zipf ->
    let cum = Array.make n 0.0 in
    let acc = ref 0.0 in
    for r = 0 to n - 1 do
      acc := !acc +. (1.0 /. float_of_int (r + 1));
      cum.(r) <- !acc
    done;
    fun () ->
      let x = Random.State.float st !acc in
      let lo = ref 0 and hi = ref (n - 1) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if cum.(mid) > x then hi := mid else lo := mid + 1
      done;
      perm.(!lo)

(* ------------------------------------------------------ connection *)

type conn = {
  fd : Unix.file_descr;
  mutable buf : Bytes.t;
  mutable lo : int;
  mutable hi : int;
}

let connect path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> Some { fd; buf = Bytes.create 65536; lo = 0; hi = 0 }
  | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
    Unix.close fd;
    None

let send c s =
  let len = String.length s in
  let rec go off =
    if off < len then go (off + Unix.write_substring c.fd s off (len - off))
  in
  go 0

let rec recv_line c =
  let rec newline i = if i >= c.hi || Bytes.get c.buf i = '\n' then i else newline (i + 1) in
  let i = newline c.lo in
  if i < c.hi then begin
    let line = Bytes.sub_string c.buf c.lo (i - c.lo) in
    c.lo <- i + 1;
    line
  end
  else begin
    if c.lo > 0 then begin
      Bytes.blit c.buf c.lo c.buf 0 (c.hi - c.lo);
      c.hi <- c.hi - c.lo;
      c.lo <- 0
    end;
    if c.hi = Bytes.length c.buf then c.buf <- Bytes.extend c.buf 0 (Bytes.length c.buf);
    let got = Unix.read c.fd c.buf c.hi (Bytes.length c.buf - c.hi) in
    if got = 0 then failwith "daemon closed the connection";
    c.hi <- c.hi + got;
    recv_line c
  end

(* One control op, with nothing else outstanding on [c]. *)
let control c op params =
  send c
    (Printf.sprintf "{\"id\":\"ctl\",\"op\":%S,\"params\":%s}\n" op
       (Util.Json.to_string params));
  match Serve.Protocol.parse_reply (recv_line c) with
  | Ok { Serve.Protocol.outcome = Ok result; _ } -> result
  | Ok { outcome = Error (code, msg); _ } -> failwith (op ^ ": " ^ code ^ ": " ^ msg)
  | Error msg -> failwith (op ^ ": " ^ msg)

let counter stats name =
  match Option.bind (Util.Json.member "counters" stats) (Util.Json.member name) with
  | Some j -> Option.value ~default:0 (Util.Json.int_ j)
  | None -> 0

(* ---------------------------------------------------------- checks *)

(* Every reply is decoded and compared with [=] against the in-process
   reference.  A reply whose bytes after the echoed id equal a reply
   already decoded and found correct for the same request decodes to
   the same value, so only the first of each distinct byte string is
   decoded. *)
type checker = {
  refs : Mccm.Metrics.t array;
  verified : string array;  (* "" until a correct reply is seen *)
  mutable checked : int;
  mutable failed : int;
  mutable first_error : string;
}

let checker refs =
  {
    refs;
    verified = Array.make (Array.length refs) "";
    checked = 0;
    failed = 0;
    first_error = "";
  }

let fail ck msg =
  ck.failed <- ck.failed + 1;
  if ck.first_error = "" then ck.first_error <- msg

(* The reply's id (requests carry integer ids) and where the rest of
   the frame starts. *)
let reply_id line =
  let prefix = "{\"id\":" in
  let p = String.length prefix in
  if not (String.starts_with ~prefix line) then None
  else
    match String.index_from_opt line p ',' with
    | None -> None
    | Some k -> (
      match int_of_string_opt (String.sub line p (k - p)) with
      | Some id -> Some (id, k)
      | None -> None)

let suffix_equal line k v =
  let n = String.length v in
  n > 0
  && String.length line - k = n
  &&
  let rec go i = i = n || (line.[k + i] = v.[i] && go (i + 1)) in
  go 0

let check_reply ck u line k =
  ck.checked <- ck.checked + 1;
  if not (suffix_equal line k ck.verified.(u)) then
    match Serve.Protocol.parse_reply line with
    | Ok { outcome = Ok result; _ } -> (
      match Option.map Serve.Protocol.metrics_of_json (Util.Json.member "metrics" result) with
      | Some (Ok m) when m = ck.refs.(u) ->
        ck.verified.(u) <- String.sub line k (String.length line - k)
      | Some (Ok _) -> fail ck ("wrong metrics for " ^ universe.(u).arch)
      | Some (Error msg) -> fail ck ("undecodable metrics: " ^ msg)
      | None -> fail ck "reply without metrics")
    | Ok { outcome = Error (code, msg); _ } -> fail ck (code ^ ": " ^ msg)
    | Error msg -> fail ck ("bad reply frame: " ^ msg)

(* --------------------------------------------------------- traffic *)

type client = {
  conn : conn;
  ck : checker;
  params : string array;          (* per universe index *)
  mutable next_id : int;
  pending : int array;            (* universe index by id, ring *)
}

let ring = 4096

let make_client conn ck ~cache =
  {
    conn;
    ck;
    params = Array.map (params_json ~cache) universe;
    next_id = 0;
    pending = Array.make ring (-1);
  }

let issue cl u =
  let id = cl.next_id in
  cl.next_id <- id + 1;
  cl.pending.(id land (ring - 1)) <- u;
  send cl.conn (frame ~params:cl.params.(u) id ^ "\n")

let await cl =
  let line = recv_line cl.conn in
  match reply_id line with
  | Some (id, k) -> check_reply cl.ck cl.pending.(id land (ring - 1)) line k
  | None ->
    cl.ck.checked <- cl.ck.checked + 1;
    fail cl.ck ("unmatched reply: " ^ line)

let window = 32

(* Closed loop with [window] requests outstanding: send each of [us]
   and return when all are answered. *)
let pass cl us =
  let n = Array.length us in
  let sent = ref 0 in
  while !sent < min window n do
    issue cl us.(!sent);
    incr sent
  done;
  for _ = 1 to n do
    await cl;
    if !sent < n then begin
      issue cl us.(!sent);
      incr sent
    end
  done

(* Saturation phase: the same closed loop, timed.  Returns the reply
   rate of each half-second slice. *)
let saturate cl ~draw ~seconds =
  let slice = 0.5 in
  let slices = max 1 (int_of_float (Float.round (seconds /. slice))) in
  let counts = Array.make slices 0 in
  for _ = 1 to window do
    issue cl (draw ())
  done;
  let t0 = Proc.now_s () in
  let t_end = t0 +. (float_of_int slices *. slice) in
  let rec loop () =
    await cl;
    let now = Proc.now_s () in
    if now < t_end then begin
      let s = min (slices - 1) (int_of_float ((now -. t0) /. slice)) in
      counts.(s) <- counts.(s) + 1;
      issue cl (draw ());
      loop ()
    end
  in
  loop ();
  for _ = 2 to window do
    await cl
  done;
  Array.map (fun c -> float_of_int c /. slice) counts

(* Requests that make one balanced round of draws: the universe for
   the uniform mix, a single request for Zipf. *)
let round = function Uniform -> Array.length universe | Zipf -> 1

(* Latency phase: one request outstanding, for [seconds] rounded up to
   whole rounds and at least [min_samples] requests; client send to
   reply, in seconds, per request, with the universe index it went to. *)
let latencies ?(min_samples = 0) cl ~mix ~draw ~seconds =
  let samples = Proc.Samples.create () and us = ref [] in
  let t_end = Proc.now_s () +. seconds in
  while
    samples.Proc.Samples.n mod round mix <> 0
    || samples.Proc.Samples.n < min_samples
    || Proc.now_s () < t_end
  do
    let u = draw () in
    let t = Mccm_obs.Clock.now_ns () in
    issue cl u;
    await cl;
    Proc.Samples.add samples (float_of_int (Mccm_obs.Clock.now_ns () - t) /. 1e9);
    us := u :: !us
  done;
  (Proc.Samples.to_array samples, Array.of_list (List.rev !us))

(* ---------------------------------------------------------- daemon *)

type daemon = { pid : int; sock : string }

let daemon_workers () = max 1 (Domain.recommended_domain_count () - 1)

let start_daemon ~mccm =
  Proc.ensure_run_dir ();
  let sock = Filename.concat Proc.run_dir (Printf.sprintf "serve-%d.sock" (Unix.getpid ())) in
  if Sys.file_exists sock then Sys.remove sock;
  let pid =
    Proc.spawn
      [| mccm; "serve"; "--socket"; sock; "--workers"; string_of_int (daemon_workers ()) |]
  in
  let deadline = Proc.now_s () +. 30.0 in
  let rec attach () =
    match connect sock with
    | Some c -> c
    | None ->
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ -> failwith "mccm serve exited during start-up");
      if Proc.now_s () > deadline then failwith "mccm serve did not start";
      Unix.sleepf 0.001;
      attach ()
  in
  let c = attach () in
  ({ pid; sock }, c)

let stop_daemon d c =
  Unix.close c.fd;
  Unix.kill d.pid Sys.sigterm;
  Proc.exited_ok (Proc.wait d.pid)

(* Start a daemon and answer one warm-up pass (each distinct request
   once); returns the daemon, a client on it and the set-up time, exec
   to last warm-up reply. *)
let set_up ~mccm ~cache ck =
  let t0 = Proc.now_s () in
  let d, conn = start_daemon ~mccm in
  let cl = make_client conn ck ~cache in
  pass cl (Array.init (Array.length universe) Fun.id);
  (d, cl, Proc.now_s () -. t0)
