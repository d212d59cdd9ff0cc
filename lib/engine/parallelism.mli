(** Compute-engine parallelism strategies.

    A strategy assigns an unrolling factor to some of the six convolution
    loops (paper Section II-B, Fig. 1).  The product of all factors is the
    number of PEs the engine keeps busy in a fully utilised cycle and must
    not exceed the engine's PE budget (constraint of paper Eq. 1). *)

type dim = Filters | Channels | Height | Width | Kernel_h | Kernel_w

val all_dims : dim list
(** The six convolution loop dimensions. *)

val dim_to_string : dim -> string
(** Short printable name. *)

type t
(** A parallelism strategy, a positive factor per dimension (1 when the
    dimension is not parallelised). *)

val scalar : t
(** The strategy with factor 1 everywhere (a single-PE engine). *)

val of_factors : (dim * int) list -> t
(** [of_factors l] builds a strategy; dimensions absent from [l] get factor
    1.  @raise Invalid_argument on a non-positive factor or a repeated
    dimension. *)

val three_d : filters:int -> height:int -> width:int -> t
(** The 3-D strategy the paper identifies as best on average (across
    filters and within a channel's height and width, per Ma et al.). *)

val factor : t -> dim -> int
(** [factor t d] is the unrolling factor on [d]. *)

val degree : t -> int
(** Product of all factors: PEs kept busy per fully-utilised cycle. *)

val dimensions_used : t -> dim list
(** Dimensions with factor > 1, in [all_dims] order. *)

val layer_dim_extent : Cnn.Layer.t -> dim -> int
(** Extent of loop [d] for a layer (the |d| of paper Eq. 1). *)

val equal : t -> t -> bool
(** Structural equality. *)

val pp : Format.formatter -> t -> unit
(** Prints as e.g. ["F4xH2xW2"]. *)
