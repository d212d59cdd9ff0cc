(* Processes, files and clocks shared by the workloads. *)

external children_maxrss_kb : unit -> int = "perfbench_children_maxrss_kb"

let now_s () = float_of_int (Mccm_obs.Clock.now_ns ()) /. 1e9

(* Run-time files (sockets, captured CLI output, traces) live here,
   inside the checkout. *)
let run_dir = ".bench_run"

let ensure_run_dir () =
  if not (Sys.file_exists run_dir) then Unix.mkdir run_dir 0o755

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let devnull () = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0

(* Processes started and not yet waited for; killed and reaped at exit
   so that a failing run leaves nothing behind. *)
let live = ref []

(* Start [argv] with stdout to [stdout_path] (or /dev/null) and stderr
   discarded. *)
let spawn ?stdout_path argv =
  let null = devnull () in
  let out =
    match stdout_path with
    | None -> null
    | Some p -> Unix.openfile p [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let pid = Unix.create_process argv.(0) argv null out null in
  if out != null then Unix.close out;
  Unix.close null;
  live := pid :: !live;
  pid

let rec wait pid =
  match Unix.waitpid [] pid with
  | _, status ->
    live := List.filter (( <> ) pid) !live;
    status
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait pid

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (wait pid))
        !live)

let exited_ok = function Unix.WEXITED 0 -> true | _ -> false

(* Run a CLI to completion: (ok, wall seconds, captured stdout). *)
let run_capture ~name argv =
  ensure_run_dir ();
  let path = Filename.concat run_dir (name ^ ".out") in
  let t0 = now_s () in
  let pid = spawn ~stdout_path:path argv in
  let status = wait pid in
  let wall = now_s () -. t0 in
  let out = read_file path in
  Sys.remove path;
  (exited_ok status, wall, out)

(* VmHWM (peak resident set) of a live process, MiB. *)
let vm_hwm_mib pid =
  let status = read_file (Printf.sprintf "/proc/%d/status" pid) in
  let line =
    List.find
      (fun l -> String.starts_with ~prefix:"VmHWM:" l)
      (String.split_on_char '\n' status)
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)

(* Run [f] in a forked child (fresh process-global state, as a new
   process would have) and return what it returns, marshalled back over
   a pipe.  The caller must not have started any other domain. *)
let in_child (f : unit -> 'a) : 'a =
  let r, w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close r;
    let code =
      match f () with
      | v ->
        let oc = Unix.out_channel_of_descr w in
        Marshal.to_channel oc (Ok v : ('a, string) result) [];
        close_out oc;
        0
      | exception e ->
        let oc = Unix.out_channel_of_descr w in
        Marshal.to_channel oc (Error (Printexc.to_string e) : ('a, string) result) [];
        close_out oc;
        1
    in
    Unix._exit code
  | pid ->
    Unix.close w;
    let ic = Unix.in_channel_of_descr r in
    let v : ('a, string) result =
      match Marshal.from_channel ic with
      | v -> v
      | exception End_of_file -> Error "child died without a result"
    in
    close_in ic;
    ignore (wait pid);
    (match v with Ok v -> v | Error msg -> failwith ("child: " ^ msg))

(* Statistics over samples. *)

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

let median a =
  let a = sorted a in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile, [p] in (0, 100]. *)
let percentile p a =
  let a = sorted a in
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (ceil (p /. 100.0 *. float_of_int n)) - 1)))

let mean a =
  if Array.length a = 0 then 0.0
  else Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)

(* Growable float buffer for latency samples. *)
module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 4096 0.0; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0.0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let to_array t = Array.sub t.a 0 t.n
end
