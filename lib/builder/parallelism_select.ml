module P = Engine.Parallelism

(* Ascending 7-smooth numbers up to [limit >= 1], by the four-pointer
   merge of Hamming's problem: the next number is the smallest pending
   product [s.(i_p) * p] over p in {2, 3, 5, 7}.  A product is formed
   only when [s.(i_p) <= limit / p], so none exceeds [limit] and nothing
   wraps; a prime whose next product would not fit drops out (its
   pending product becomes [max_int], which is not 7-smooth), and the
   merge ends when all four have. *)
let merge_smooth limit =
  let buf = ref (Array.make 64 1) in
  let n = ref 1 in
  let product i p = if !buf.(i) <= limit / p then !buf.(i) * p else max_int in
  let i2 = ref 0 and i3 = ref 0 and i5 = ref 0 and i7 = ref 0 in
  let c2 = ref (product 0 2) and c3 = ref (product 0 3)
  and c5 = ref (product 0 5) and c7 = ref (product 0 7) in
  let next = ref (Int.min (Int.min !c2 !c3) (Int.min !c5 !c7)) in
  while !next < max_int do
    if !n = Array.length !buf then begin
      let grown = Array.make (2 * !n) 1 in
      Array.blit !buf 0 grown 0 !n;
      buf := grown
    end;
    !buf.(!n) <- !next;
    incr n;
    if !c2 = !next then (incr i2; c2 := product !i2 2);
    if !c3 = !next then (incr i3; c3 := product !i3 3);
    if !c5 = !next then (incr i5; c5 := product !i5 5);
    if !c7 = !next then (incr i7; c7 := product !i7 7);
    next := Int.min (Int.min !c2 !c3) (Int.min !c5 !c7)
  done;
  Array.sub !buf 0 !n

(* Index of the largest entry of the ascending array [s] that is <= [n],
   for [s.(0) <= n]. *)
let floor_index s n =
  let last = Array.length s - 1 in
  if n >= s.(last) then last
  else begin
    (* s.(lo) <= n < s.(hi) *)
    let lo = ref 0 and hi = ref last in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if s.(mid) <= n then lo := mid else hi := mid
    done;
    !lo
  end

(* The 7-smooth numbers up to 2^20 (1 286 of them), built once.  PE
   counts and loop extents of real boards and CNNs keep every search
   inside it; larger arguments fall back to [merge_smooth]. *)
let table_limit = 1 lsl 20

let table = merge_smooth table_limit

(* Ascending 7-smooth numbers up to [limit >= 1]. *)
let smooth_le limit =
  if limit <= table_limit then Array.sub table 0 (floor_index table limit + 1)
  else merge_smooth limit

let smooth_degree n =
  if n < 1 then 1
  else if n <= table_limit then table.(floor_index table n)
  else
    let s = merge_smooth n in
    s.(Array.length s - 1)

(* A power of two lies in [n, 2n), so the answer is at most 2n.  Past
   the largest 7-smooth int no larger one fits, and that one is
   returned. *)
let next_smooth_geq n =
  if n <= 1 then 1
  else
    let s =
      if n <= table_limit then table
      else merge_smooth (if n > max_int / 2 then max_int else 2 * n)
    in
    let i = floor_index s n in
    if s.(i) = n || i = Array.length s - 1 then s.(i) else s.(i + 1)

(* Memo keys double as the search input: [| pes; mode; e1; eh; ew; rest;
   e1; eh; ew; rest; ... |], one (e1, eh, ew, rest) group per distinct
   layer shape, in ascending shape order, with [rest] summed over the
   layers sharing the shape.  Eq. 1's cost is linear in [rest] and the
   per-dimension maxima ignore multiplicity, so merging is exact, and
   any permutation or re-spelling of the same shape multiset maps to
   one key. *)
module Key = struct
  type t = int array

  let equal (a : t) (b : t) = a = b
  let hash (a : t) = Array.fold_left (fun h x -> (h * 31) + x) 0 a land max_int
end

module Memo = Hashtbl.Make (Key)

let key ~pes ~channel_mode terms =
  let rec merge = function
    | (e1, eh, ew, r) :: (e1', eh', ew', r') :: tl
      when e1 = e1' && eh = eh' && ew = ew' ->
      merge ((e1, eh, ew, r + r') :: tl)
    | t :: tl -> t :: merge tl
    | [] -> []
  in
  let merged = merge (List.sort compare terms) in
  let k = Array.make (2 + (4 * List.length merged)) 0 in
  k.(0) <- pes;
  k.(1) <- Bool.to_int channel_mode;
  List.iteri
    (fun j (e1, eh, ew, r) ->
      let o = 2 + (4 * j) in
      k.(o) <- e1;
      k.(o + 1) <- eh;
      k.(o + 2) <- ew;
      k.(o + 3) <- r)
    merged;
  k

(* The one process-global memo in the builder and the cost models:
   [solve]'s results keyed by content (see [Key]), never by a table or
   session identity.  Repeated content hits the same entry whichever
   table, session or one-shot evaluation asks, so repeated requests do
   not grow it: 4 000 one-shot Res50/VCU108 segmented/4 evaluations
   leave 4 entries.  It grows only with distinct engine workloads
   (bounding it for arbitrary user models is open work).  It stays
   global because one-shot evaluations (the daemon's registry-full
   fallback, [Validate], [mccm eval]) have no session to own it, and
   the search is still a third to two thirds of their cost: on
   VCU108, segmented/4 and hybrid/4 one-shot evaluations of Res50,
   Res152, MobV2 and Dns121 take 38-159 us with it and 110-230 us
   without (2-core Xeon, release build).  Exploration runs in parallel
   domains, hence the mutex. *)
let cache : P.t Memo.t = Memo.create 64

let cache_lock = Mutex.create ()

(* Exhaustive search over 7-smooth (d1, h) with the largest fitting
   smooth w, minimising the summed Eq.-1 cycles of the key's terms.
   Candidates are visited in ascending (d1, h) order and replace the
   best only on strictly lower cost, or equal cost with larger d1, then
   larger h, starting from (1, 1, 1).  Nothing is allocated per
   candidate. *)
let search key =
  let pes = key.(0) in
  let m = (Array.length key - 2) / 4 in
  let field f = Array.init m (fun j -> key.(2 + (4 * j) + f)) in
  let e1 = field 0 and eh = field 1 and ew = field 2 and rest = field 3 in
  let cd = Util.Int_math.ceil_div in
  let max1 = Array.fold_left Int.max 1 e1 in
  let maxh = Array.fold_left Int.max 1 eh in
  let maxw = Array.fold_left Int.max 1 ew in
  let limh = next_smooth_geq maxh in
  let limw = next_smooth_geq maxw in
  let d1s = smooth_le (Int.min pes (next_smooth_geq max1)) in
  let hs = smooth_le (Int.min pes limh) in
  let ws = smooth_le (Int.min pes limw) in
  (* Every ceil-division the search needs, once: [qh.(a).(j)] is
     [ceil(eh.(j) / hs.(a))], [qw] likewise for [ws], and [r1.(j)] is
     [rest.(j) * ceil(e1.(j) / d1)] for the current d1.  Pricing a
     candidate is then a plain multiply-add. *)
  let quotients e degrees =
    Array.map (fun d -> Array.map (fun x -> cd x d) e) degrees
  in
  let qh = quotients eh hs and qw = quotients ew ws in
  let r1 = Array.make m 0 in
  let set_d1 d1 =
    for j = 0 to m - 1 do
      r1.(j) <- rest.(j) * cd e1.(j) d1
    done
  in
  let cost ih iw =
    let qh = qh.(ih) and qw = qw.(iw) in
    let c = ref 0 in
    for j = 0 to m - 1 do
      c := !c + (r1.(j) * qh.(j) * qw.(j))
    done;
    !c
  in
  set_d1 1;
  let best_c = ref (cost 0 0) and best_d1 = ref 1 and best_h = ref 1
  and best_w = ref 1 in
  Array.iter
    (fun d1 ->
      set_d1 d1;
      let rem = pes / d1 in
      let hcap = Int.min rem limh in
      let ih = ref 0 in
      while !ih < Array.length hs && hs.(!ih) <= hcap do
        let h = hs.(!ih) in
        let iw = floor_index ws (Int.min (rem / h) limw) in
        let c = cost !ih iw in
        if
          c < !best_c
          || (c = !best_c && (d1 > !best_d1 || (d1 = !best_d1 && h > !best_h)))
        then begin
          best_c := c;
          best_d1 := d1;
          best_h := h;
          best_w := ws.(iw)
        end;
        incr ih
      done)
    d1s;
  let channel_mode = key.(1) = 1 in
  P.of_factors
    (if channel_mode then
       [ (P.Channels, !best_d1); (P.Height, !best_h); (P.Width, !best_w) ]
     else [ (P.Filters, !best_d1); (P.Height, !best_h); (P.Width, !best_w) ])

let solve key =
  let cached =
    Mutex.lock cache_lock;
    let r = Memo.find_opt cache key in
    Mutex.unlock cache_lock;
    r
  in
  match cached with
  | Some p -> p
  | None ->
    let p = search key in
    Mutex.lock cache_lock;
    (if not (Memo.mem cache key) then Memo.add cache key p);
    Mutex.unlock cache_lock;
    p

(* ------------------------------------------------------ cycle floors *)

(* Divisor candidates for minimising [d -> ceil_div e d] under a cap:
   the O(sqrt e) quotient breakpoints (smallest d per quotient) plus
   the cap itself. *)
let ceil_candidates e cap =
  let m = max 1 (min e cap) in
  let acc = ref [ m ] in
  let q = ref 1 in
  let continue = ref (e >= 1) in
  while !continue do
    let d = Util.Int_math.ceil_div e !q in
    if d <= m then acc := d :: !acc;
    if d <= 1 then continue := false
    else begin
      let q' = Util.Int_math.ceil_div e (d - 1) in
      if q' <= !q then continue := false else q := q'
    end
  done;
  List.sort_uniq compare !acc

(* Minimum Eq.-1 cycles of one layer over every (d1, h, w) with
   [d1 * h * w <= budget]: [rest] covers the never-unrolled extents.
   This really is the minimum, not just a bound: for a fixed ceil
   quotient the smallest divisor achieving it dominates (it leaves the
   most budget to the later dimensions), and for fixed (d1, h) the
   cost only falls as w grows, so the largest feasible w dominates. *)
let min_cycles_mode ~budget ~e1 ~eh ~ew ~rest =
  let cd = Util.Int_math.ceil_div in
  let best = ref max_int in
  List.iter
    (fun d1 ->
      let rem = budget / d1 in
      if rem >= 1 then
        List.iter
          (fun h ->
            let w = max 1 (min ew (rem / h)) in
            if rem / h >= 1 then begin
              let c = rest * cd e1 d1 * cd eh h * cd ew w in
              if c < !best then best := c
            end)
          (ceil_candidates eh rem))
    (ceil_candidates e1 budget);
  !best

let cycle_floor ~pes table i =
  if pes < 1 then invalid_arg "Parallelism_select.cycle_floor: pes < 1";
  let ef, ec, eh, ew, ekh, ekw = Cnn.Table.extents table i in
  let k2 = ekh * ekw in
  (* Engines unroll (Filters, Height, Width) or (Channels, Height,
     Width); the floor takes the min over both modes, so it holds
     whichever mode [choose_indices] (or the naive-cube ablation) ends
     up in. *)
  min
    (min_cycles_mode ~budget:pes ~e1:ef ~eh ~ew ~rest:(ec * k2))
    (min_cycles_mode ~budget:pes ~e1:ec ~eh ~ew ~rest:(ef * k2))

let utilization_ceiling ~pes table i =
  let floor = cycle_floor ~pes table i in
  if floor <= 0 then 1.0
  else
    let ideal = float_of_int (Cnn.Table.macs table i) /. float_of_int pes in
    Float.min 1.0 (ideal /. float_of_int floor)

let choose_indices ~pes table indices =
  if pes < 1 then invalid_arg "Parallelism_select.choose_indices: pes < 1";
  match indices with
  | [] -> P.scalar
  | _ ->
    let dw_macs, total_macs =
      List.fold_left
        (fun (dw, tot) i ->
          let m = Cnn.Table.macs table i in
          ((if Cnn.Table.is_depthwise table i then dw + m else dw), tot + m))
        (0, 0) indices
    in
    let channel_mode = 2 * dw_macs >= total_macs in
    (* Per layer: (first-dim extent, height, width, product of the
       un-unrolled extents). *)
    let terms =
      List.map
        (fun i ->
          let ef, ec, eh, ew, ekh, ekw = Cnn.Table.extents table i in
          let k2 = ekh * ekw in
          if channel_mode then (ec, eh, ew, ef * k2)
          else (ef, eh, ew, ec * k2))
        indices
    in
    solve (key ~pes ~channel_mode terms)
