(* Benchmark-side spans for the traced run.

   Every span carries a name, start, end, parent and request id; spans
   stay in memory and are written once, when the run ends.  The program
   itself is not instrumented: the benchmark wraps its own calls into
   each layer's public functions.  When recording is off, [with_span]
   is a plain call, which is what the untraced replay times. *)

type span = {
  name : string;
  rid : int;      (* request (or operation) id; -1 outside requests *)
  parent : int;   (* index of the enclosing span, -1 for a root *)
  tid : int;      (* track: 0 for this process, one per forked child *)
  start_ns : int;
  mutable stop_ns : int;
}

let recording = ref false
let track = ref 0
let spans : span array ref = ref [||]
let count = ref 0
let current = ref (-1)

let now_ns = Mccm_obs.Clock.now_ns

let push s =
  if !count = Array.length !spans then begin
    let bigger = Array.make (max 1024 (2 * !count)) s in
    Array.blit !spans 0 bigger 0 !count;
    spans := bigger
  end;
  !spans.(!count) <- s;
  incr count;
  !count - 1

let with_span ?rid name f =
  if not !recording then f ()
  else begin
    let parent = !current in
    let rid =
      match rid with
      | Some r -> r
      | None -> if parent < 0 then -1 else !spans.(parent).rid
    in
    let i =
      push { name; rid; parent; tid = !track; start_ns = now_ns (); stop_ns = 0 }
    in
    current := i;
    Fun.protect f ~finally:(fun () ->
        !spans.(i).stop_ns <- now_ns ();
        current := parent)
  end

let all () = Array.sub !spans 0 !count

let reset () =
  spans := [||];
  count := 0;
  current := -1

(* Append spans recorded by another process (a forked child), shifting
   their parent indices past the ones already held. *)
let import (xs : span array) =
  let base = !count in
  Array.iter
    (fun s ->
      ignore
        (push { s with parent = (if s.parent < 0 then -1 else s.parent + base) }))
    xs

let duration s = s.stop_ns - s.start_ns

(* A span's self time is its duration minus the part of its interval
   that its child spans cover (the union of the children's intervals,
   clipped to the parent). *)
let self_times (xs : span array) =
  let n = Array.length xs in
  let children = Array.make n [] in
  for i = n - 1 downto 0 do
    let p = xs.(i).parent in
    if p >= 0 then children.(p) <- i :: children.(p)
  done;
  Array.init n (fun i ->
      let s = xs.(i) in
      let kids =
        List.sort
          (fun a b -> compare xs.(a).start_ns xs.(b).start_ns)
          children.(i)
      in
      let covered, _ =
        List.fold_left
          (fun (acc, reach) k ->
            let lo = max reach xs.(k).start_ns in
            let hi = min s.stop_ns xs.(k).stop_ns in
            if hi > lo then (acc + (hi - lo), hi) else (acc, reach))
          (0, s.start_ns) kids
      in
      duration s - covered)

let layer_of name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

let to_events (xs : span array) =
  let depth = Array.make (Array.length xs) 0 in
  Array.iteri
    (fun i s -> if s.parent >= 0 then depth.(i) <- depth.(s.parent) + 1)
    xs;
  Array.to_list xs
  |> List.mapi (fun i s ->
         {
           Mccm_obs.Span.name = s.name;
           cat = layer_of s.name;
           ts_ns = s.start_ns;
           dur_ns = duration s;
           tid = s.tid;
           depth = depth.(i);
           args =
             [
               ("rid", string_of_int s.rid);
               ( "parent",
                 if s.parent < 0 then "" else xs.(s.parent).name );
             ];
         })
  |> List.stable_sort (fun (a : Mccm_obs.Span.event) b ->
         compare (a.ts_ns, a.depth) (b.ts_ns, b.depth))

let write_chrome ~path xs = Mccm_obs.Chrome_trace.write ~path (to_events xs)

(* Per span name: calls, total self time and total duration, in the
   order names first appear, over the spans [keep] selects. *)
let table ?(keep = fun _ -> true) (xs : span array) =
  let self = self_times xs in
  let rows = Hashtbl.create 32 and order = ref [] in
  Array.iteri
    (fun i s ->
      if keep s then begin
        let calls, self_ns, dur_ns =
          match Hashtbl.find_opt rows s.name with
          | Some r -> r
          | None ->
            order := s.name :: !order;
            (0, 0, 0)
        in
        Hashtbl.replace rows s.name
          (calls + 1, self_ns + self.(i), dur_ns + duration s)
      end)
    xs;
  List.rev_map (fun name -> (name, Hashtbl.find rows name)) !order
