(* Content signature: the fields a memo key needs, flattened to ints so
   that hashing one allocates nothing.  Built once per engine, since
   every memo lookup of a build and an evaluation reads it. *)
type signature = {
  s_pes : int;
  s_filters : int;
  s_channels : int;
  s_height : int;
  s_width : int;
  s_kernel_h : int;
  s_kernel_w : int;
  s_dataflow : int;
}

type t = {
  id : int;
  pes : int;
  parallelism : Parallelism.t;
  dataflow : Dataflow.t;
  signature : signature;
}

let v ~id ~pes ~parallelism ~dataflow =
  if pes <= 0 then invalid_arg "Engine.v: non-positive PE count";
  if Parallelism.degree parallelism > pes then
    invalid_arg "Engine.v: parallelism degree exceeds PE budget";
  let f d = Parallelism.factor parallelism d in
  let signature =
    {
      s_pes = pes;
      s_filters = f Parallelism.Filters;
      s_channels = f Parallelism.Channels;
      s_height = f Parallelism.Height;
      s_width = f Parallelism.Width;
      s_kernel_h = f Parallelism.Kernel_h;
      s_kernel_w = f Parallelism.Kernel_w;
      s_dataflow =
        (match dataflow with
        | Dataflow.Weight_stationary -> 0
        | Dataflow.Output_stationary -> 1
        | Dataflow.Input_stationary -> 2);
    }
  in
  { id; pes; parallelism; dataflow; signature }

(* Eq. 1: one ceil-division term per convolution loop dimension. *)
let cycles_with_extents t extents =
  List.fold_left
    (fun acc (d, extent) ->
      acc * Util.Int_math.ceil_div extent (Parallelism.factor t.parallelism d))
    1 extents

let dim_extents layer =
  List.map
    (fun d -> (d, Parallelism.layer_dim_extent layer d))
    Parallelism.all_dims

let layer_cycles t layer = cycles_with_extents t (dim_extents layer)

let tile_cycles t layer ~rows =
  let rows = max 1 rows in
  let extents =
    List.map
      (fun (d, extent) ->
        match d with
        | Parallelism.Height -> (d, min rows extent)
        | _ -> (d, extent))
      (dim_extents layer)
  in
  cycles_with_extents t extents

let ideal_cycles ~pes layer =
  Util.Int_math.ceil_div (Cnn.Layer.macs layer) pes

(* Table-indexed fast path: the same Eq.-1 products computed from
   precomputed loop extents instead of per-call [Layer.out_shape]
   recomputation.  Integer products agree with [cycles_with_extents]
   exactly (same factors, and machine-int multiplication is
   order-independent), so results are bit-identical.  Extents and
   factors are read one dimension at a time, so a call allocates
   nothing — the single-CE DP calls this once per layer. *)

let cd = Util.Int_math.ceil_div

(* Eq. 1 with the height extent passed in: the layer's own, or the rows
   of a tile. *)
let cycles_with_height t tbl i eh =
  let p = t.parallelism in
  cd (Cnn.Table.extent_filters tbl i) (Parallelism.factor p Parallelism.Filters)
  * cd (Cnn.Table.extent_channels tbl i)
      (Parallelism.factor p Parallelism.Channels)
  * cd eh (Parallelism.factor p Parallelism.Height)
  * cd (Cnn.Table.extent_width tbl i) (Parallelism.factor p Parallelism.Width)
  * cd (Cnn.Table.extent_kernel_h tbl i)
      (Parallelism.factor p Parallelism.Kernel_h)
  * cd (Cnn.Table.extent_kernel_w tbl i)
      (Parallelism.factor p Parallelism.Kernel_w)

let layer_cycles_at t tbl i =
  cycles_with_height t tbl i (Cnn.Table.extent_height tbl i)

let tile_cycles_at t tbl i ~rows =
  cycles_with_height t tbl i
    (Int.min (Int.max 1 rows) (Cnn.Table.extent_height tbl i))

let ideal_cycles_at ~pes tbl i = cd (Cnn.Table.macs tbl i) pes

let utilization t layer =
  let actual = layer_cycles t layer in
  let ideal = ideal_cycles ~pes:t.pes layer in
  float_of_int ideal /. float_of_int actual

let average_utilization t layers =
  if layers = [] then invalid_arg "Engine.average_utilization: empty list";
  let weighted, total =
    List.fold_left
      (fun (w, tot) l ->
        let m = float_of_int (Cnn.Layer.macs l) in
        (w +. (m *. utilization t l), tot +. m))
      (0.0, 0.0) layers
  in
  weighted /. total

(* Mirrors [average_utilization]'s left-to-right float accumulation
   exactly (same additions in the same order on the same values), so
   the result is bit-identical to the list fold. *)
let average_utilization_at t tbl ~first ~last =
  if first > last then invalid_arg "Engine.average_utilization_at: empty range";
  let weighted = ref 0.0 and total = ref 0.0 in
  for i = first to last do
    let m = float_of_int (Cnn.Table.macs tbl i) in
    let u =
      float_of_int (ideal_cycles_at ~pes:t.pes tbl i)
      /. float_of_int (layer_cycles_at t tbl i)
    in
    weighted := !weighted +. (m *. u);
    total := !total +. m
  done;
  !weighted /. !total

let fp_signature h s =
  let module Fp = Util.Fingerprint in
  let h = Fp.int h s.s_pes in
  let h = Fp.int h s.s_filters in
  let h = Fp.int h s.s_channels in
  let h = Fp.int h s.s_height in
  let h = Fp.int h s.s_width in
  let h = Fp.int h s.s_kernel_h in
  let h = Fp.int h s.s_kernel_w in
  Fp.int h s.s_dataflow

let pp ppf t =
  Format.fprintf ppf "CE%d[%d PEs, %a, %a]" t.id t.pes Parallelism.pp
    t.parallelism Dataflow.pp t.dataflow
