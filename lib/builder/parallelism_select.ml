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

(* Exhaustive search over 7-smooth (d1, h) with the largest fitting
   smooth w, minimising the summed Eq.-1 cycles of the terms
   [(e1.(j), eh.(j), ew.(j), rest.(j))].  The best candidate is the
   least by (cost, larger d1, larger h), starting from (1, 1, 1);
   candidates are visited in ascending (d1, h) order and replace the
   best only when they beat it under that order.  A d1 none of whose
   candidates can even tie the best cost is skipped whole (see
   [might_tie]).  Nothing is allocated per candidate. *)
let search ~pes ~channel_mode e1 eh ew rest =
  let m = Array.length e1 in
  (* Every dividend is a non-negative extent and every divisor a
     positive degree. *)
  let cd a b = (a + b - 1) / b in
  let max1 = Array.fold_left Int.max 1 e1 in
  let maxh = Array.fold_left Int.max 1 eh in
  let maxw = Array.fold_left Int.max 1 ew in
  let limh = next_smooth_geq maxh in
  let limw = next_smooth_geq maxw in
  let d1s = smooth_le (Int.min pes (next_smooth_geq max1)) in
  let hs = smooth_le (Int.min pes limh) in
  let ws = smooth_le (Int.min pes limw) in
  (* Terms of one output size (eh, ew) share their h and w quotients,
     so candidates are priced per size: term [j] belongs to size
     [size.(j)], of extents [(sh, sw)].  Regrouping an integer sum of
     products changes no value. *)
  let size = Array.make m 0 in
  let sh = Array.make m 0 and sw = Array.make m 0 in
  let ns = ref 0 in
  for j = 0 to m - 1 do
    let g = ref 0 in
    while !g < !ns && not (sh.(!g) = eh.(j) && sw.(!g) = ew.(j)) do
      incr g
    done;
    if !g = !ns then begin
      sh.(!g) <- eh.(j);
      sw.(!g) <- ew.(j);
      incr ns
    end;
    size.(j) <- !g
  done;
  let ns = !ns in
  (* Every ceil-division the search needs, once: [qh.(a * ns + g)] is
     [ceil(sh.(g) / hs.(a))], [qw] likewise for [ws], and [r1.(g)] is
     the sum of [rest.(j) * ceil(e1.(j) / d1)] over the terms of size
     [g] for the current d1.  Pricing a candidate is then a plain
     multiply-add over the sizes. *)
  let quotients e degrees =
    let q = Array.make (Array.length degrees * ns) 0 in
    Array.iteri
      (fun a d ->
        for g = 0 to ns - 1 do
          q.((a * ns) + g) <- cd e.(g) d
        done)
      degrees;
    q
  in
  let qh = quotients sh hs and qw = quotients sw ws in
  let shw = Array.init ns (fun g -> sh.(g) * sw.(g)) in
  let work = ref 0 in
  for j = 0 to m - 1 do
    work := !work + (rest.(j) * e1.(j) * eh.(j) * ew.(j))
  done;
  let work = !work in
  let r1 = Array.make ns 0 in
  let set_d1 d1 =
    Array.fill r1 0 ns 0;
    for j = 0 to m - 1 do
      r1.(size.(j)) <- r1.(size.(j)) + (rest.(j) * cd e1.(j) d1)
    done
  in
  let cost ih iw =
    let oh = ih * ns and ow = iw * ns in
    let c = ref 0 in
    for g = 0 to ns - 1 do
      c := !c + (r1.(g) * qh.(oh + g) * qw.(ow + g))
    done;
    !c
  in
  set_d1 1;
  let best_c = ref (cost 0 0) and best_d1 = ref 1 and best_h = ref 1
  and best_w = ref 1 in
  (* Whether a candidate (d1, h, w) with [h * w <= rem] might cost no
     more than the best, by three lower bounds on its cost, each tried
     only while the previous one passes:
     - with [ceil(a / d) >= a / d], each term is at least
       [rest * e1 * eh * ew / (d1 * rem)], so the cost is at least
       [ceil(work / (d1 * rem))];
     - keeping [r1] exact, it is at least
       [ceil(sum_g r1.(g) * sh.(g) * sw.(g) / rem)];
     - with [ceil(a / h) * ceil(b / w) >= ceil(a * b / (h * w))], it is
       at least [sum_g r1.(g) * ceil(sh.(g) * sw.(g) / rem)].
     The first costs one division; the last two leave [r1] set for
     [d1].  Failing only on a strictly greater bound keeps every tie,
     so the tie-break still sees all of them. *)
  let might_tie d1 rem =
    cd work (d1 * rem) <= !best_c
    && begin
      set_d1 d1;
      let area = ref 0 in
      for g = 0 to ns - 1 do
        area := !area + (r1.(g) * shw.(g))
      done;
      cd !area rem <= !best_c
      && begin
        let floor = ref 0 in
        for g = 0 to ns - 1 do
          floor := !floor + (r1.(g) * cd shw.(g) rem)
        done;
        !floor <= !best_c
      end
    end
  in
  Array.iter
    (fun d1 ->
      let rem = pes / d1 in
      if might_tie d1 rem then begin
        let hcap = Int.min rem limh in
        (* The largest fitting w only shrinks as h grows: walk it down
           from the h = 1 fit instead of searching for it. *)
        let iw = ref (floor_index ws (Int.min rem limw)) in
        let ih = ref 0 in
        while !ih < Array.length hs && hs.(!ih) <= hcap do
          let h = hs.(!ih) in
          while ws.(!iw) * h > rem do
            decr iw
          done;
          let iw = !iw in
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
        done
      end)
    d1s;
  P.of_factors
    (if channel_mode then
       [ (P.Channels, !best_d1); (P.Height, !best_h); (P.Width, !best_w) ]
     else [ (P.Filters, !best_d1); (P.Height, !best_h); (P.Width, !best_w) ])

(* ------------------------------------------------------ cycle floors *)

(* The quotient breakpoints of [d -> ceil_div e d] over [1, e]: the
   smallest d reaching each quotient, in descending order (O(sqrt e) of
   them; at most [2 sqrt e + 1] distinct quotients exist).  Minimising
   over a cap only needs these at or below the cap, plus the cap. *)
let ceil_breakpoints e =
  let cd = Util.Int_math.ceil_div in
  let buf = Array.make ((2 * Util.Int_math.isqrt (Int.max e 0)) + 2) 0 in
  let n = ref 0 and d = ref e in
  while !d >= 1 do
    buf.(!n) <- !d;
    incr n;
    (* The smallest divisor of the next larger quotient, that of d - 1. *)
    d := if !d = 1 then 0 else cd e (cd e (!d - 1))
  done;
  Array.sub buf 0 !n

(* Minimum Eq.-1 cycles of one layer over every (d1, h, w) with
   [d1 * h * w <= budget]: [rest] covers the never-unrolled extents.
   This really is the minimum, not just a bound: for a fixed ceil
   quotient the smallest divisor achieving it dominates (it leaves the
   most budget to the later dimensions), and for fixed (d1, h) the
   cost only falls as w grows, so the largest feasible w dominates.
   The breakpoints of [e1] and [eh] are built once per call; each d1
   walks the [eh] ones below its own cap, smallest first. *)
let min_cycles_mode ~budget ~e1 ~eh ~ew ~rest =
  let cd = Util.Int_math.ceil_div in
  let bh = ceil_breakpoints eh in
  let best = ref max_int in
  let try_h q1 rem h =
    let w = Int.max 1 (Int.min ew (rem / h)) in
    let c = rest * q1 * cd eh h * cd ew w in
    if c < !best then best := c
  in
  let try_d1 d1 =
    let rem = budget / d1 in
    if rem >= 1 then begin
      let q1 = cd e1 d1 in
      let cap = Int.max 1 (Int.min eh rem) in
      try_h q1 rem cap;
      let k = ref (Array.length bh - 1) in
      while !k >= 0 && bh.(!k) < cap do
        try_h q1 rem bh.(!k);
        decr k
      done
    end
  in
  let b1 = ceil_breakpoints e1 in
  let cap = Int.max 1 (Int.min e1 budget) in
  try_d1 cap;
  let k = ref (Array.length b1 - 1) in
  while !k >= 0 && b1.(!k) < cap do
    try_d1 b1.(!k);
    decr k
  done;
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
    let dw_macs = ref 0 and total_macs = ref 0 in
    List.iter
      (fun i ->
        let m = Cnn.Table.macs table i in
        if Cnn.Table.is_depthwise table i then dw_macs := !dw_macs + m;
        total_macs := !total_macs + m)
      indices;
    let channel_mode = 2 * !dw_macs >= !total_macs in
    (* One term per distinct layer shape ({!Cnn.Table.shape_id}):
       first-dim extent, height, width, and the product of the
       un-unrolled extents summed over the layers of that shape.
       Eq. 1's cost is linear in that product and the per-dimension
       maxima ignore multiplicity, so merging leaves the choice
       unchanged and prices each candidate once per shape. *)
    let shapes = Cnn.Table.num_shapes table in
    let slot = Array.make shapes (-1) in
    let e1 = Array.make shapes 0 and eh = Array.make shapes 0
    and ew = Array.make shapes 0 and rest = Array.make shapes 0 in
    let m = ref 0 in
    List.iter
      (fun i ->
        let ef = Cnn.Table.extent_filters table i
        and ec = Cnn.Table.extent_channels table i in
        let k2 =
          Cnn.Table.extent_kernel_h table i * Cnn.Table.extent_kernel_w table i
        in
        let r = (if channel_mode then ef else ec) * k2 in
        let s = Cnn.Table.shape_id table i in
        if slot.(s) >= 0 then rest.(slot.(s)) <- rest.(slot.(s)) + r
        else begin
          let j = !m in
          slot.(s) <- j;
          e1.(j) <- (if channel_mode then ec else ef);
          eh.(j) <- Cnn.Table.extent_height table i;
          ew.(j) <- Cnn.Table.extent_width table i;
          rest.(j) <- r;
          incr m
        end)
      indices;
    let terms a = Array.sub a 0 !m in
    search ~pes ~channel_mode (terms e1) (terms eh) (terms ew) (terms rest)
