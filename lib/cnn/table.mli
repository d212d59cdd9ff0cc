(** Flat, precomputed per-layer scalar table.

    One O(n) pass over a model hoists every per-layer quantity the cost
    models read (MACs, weight/FM footprints, shapes, Eq.-1 loop extents,
    streaming bands) into unboxed int arrays, plus prefix sums and a
    sparse range-max table so segment aggregates become O(1) array
    arithmetic instead of O(len) list folds over [Layer.t].

    Every stored value is computed by exactly the integer formulas in
    {!Layer} and {!Model}, so reads through the table are bit-identical
    to the list folds over {!Model.layers_in_range} and friends.  The
    builder and the cost models read per-layer scalars only through a
    table; the list functions stay as the reference the simulator and
    the oracle tests use. *)

type t

val of_model : Model.t -> t
(** [of_model m] precomputes the table — one [Layer] accessor pass. *)

val model : t -> Model.t
val num_layers : t -> int

val check : t -> Model.t -> unit
(** @raise Invalid_argument unless [t] was built from exactly [m]
    (physical equality — sessions and builds share the model value). *)

(** {1 Per-layer scalars}

    Unchecked array reads — callers validate ranges once (the models
    already do). *)

val macs : t -> int -> int
val weight_elements : t -> int -> int
val ifm_elements : t -> int -> int
val ofm_elements : t -> int -> int
val extra_resident_elements : t -> int -> int
val fms_elements : t -> int -> int
val in_height : t -> int -> int
val in_width : t -> int -> int
val in_channels : t -> int -> int
val out_height : t -> int -> int
val out_width : t -> int -> int
val out_channels : t -> int -> int
val kernel : t -> int -> int
val stride : t -> int -> int
val padding : t -> int -> int
val is_depthwise : t -> int -> bool

val band1_elements : t -> int -> int
(** IFM elements of the one-OFM-row streaming band:
    [min kernel (in_h + 2 padding) * in_w * in_c] — the [rows = 1] case
    of [Builder.Tiling.ifm_rows_for_ofm_rows] times the band area. *)

val extents : t -> int -> int * int * int * int * int * int
(** The six Eq.-1 loop extents, in [Parallelism.all_dims] order:
    (filters, channels, height, width, kernel_h, kernel_w). *)

val extent_filters : t -> int -> int
val extent_channels : t -> int -> int
val extent_height : t -> int -> int
val extent_width : t -> int -> int
val extent_kernel_h : t -> int -> int
val extent_kernel_w : t -> int -> int
(** One component of {!extents} each, for per-layer hot loops: reading
    them allocates nothing, where {!extents} returns a fresh tuple. *)

val shape_id : t -> int -> int
(** Dense id of the layer's {!extents}: two layers share an id exactly
    when their six loop extents are equal.  Ids run from 0 to
    [num_shapes t - 1] in order of first appearance. *)

val num_shapes : t -> int
(** Number of distinct {!extents} tuples (Res152: 20 over 155 layers). *)

(** {1 Segment aggregates} — O(1) each. *)

val total_macs : t -> int
val total_weights : t -> int

val macs_range : t -> first:int -> last:int -> int
(** Equals [Model.macs_in_range] (prefix-sum difference).
    @raise Invalid_argument on an invalid range. *)

val weights_range : t -> first:int -> last:int -> int
(** Equals [Model.weights_in_range].
    @raise Invalid_argument on an invalid range. *)

val max_fms_range : t -> first:int -> last:int -> int
(** Equals [Model.max_fms_elements] (sparse-table range max).
    @raise Invalid_argument on an invalid range. *)
