(** The custom design space of the paper's Use Case 3.

    A custom accelerator is a Hybrid-like tile-pipelined first block over
    the first [f] layers followed by [s] Segmented-like single-CE blocks
    over the rest, coarse-grained pipelined throughout.  For a CNN with
    [n] layers and a CE budget of [c] engines, the free choices are [f],
    [s] with [f + s = c], and the [s - 1] tail segment boundaries — a
    space that grows as sums of binomials and reaches tens of billions of
    designs for Xception (the paper quotes roughly 97.1 billion for CE
    counts 2 to 11). *)

val designs_for_ce_count : num_layers:int -> ces:int -> float
(** [designs_for_ce_count ~num_layers ~ces] counts the custom designs
    using exactly [ces] engines: sum over [f >= 1, s >= 1, f + s = ces]
    of [C(num_layers - f - 1, s - 1)].  Returned as float — the counts
    overflow 62-bit integers for deep CNNs. *)

val total_designs : num_layers:int -> ce_counts:int list -> float
(** Total across a list of CE counts (the paper sweeps 2 to 11). *)

val designs_capped : num_layers:int -> ces:int -> int
(** Integer twin of {!designs_for_ce_count}: exact while it fits,
    saturating at [max_int].  This is the length the flat enumerator
    would produce uncapped; callers [min] it against a spec cap. *)

(** Unboxed flat spec rows for allocation-free enumeration.

    A spec with CE budget [ces] fits a row of [width ~ces = ces - 1]
    int slots: slot 0 holds the pipelined depth [f], slots
    [1 .. width - 1] the ascending tail boundaries, padded with 0 (a
    real boundary is at least [f + 1 >= 2], so 0 is an unambiguous end
    sentinel; a spec with [s] tail segments uses [s - 1] boundary
    slots and [f + s = ces] only when the row is full).  Rows live in
    a [Bigarray] off the OCaml heap: the enumeration and bound-pruning
    hot loops touch no GC-visible allocation per candidate, and
    domains can read (and write disjoint rows of) one shared buffer
    without coordination. *)
module Flat : sig
  type buf = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

  val width : ces:int -> int
  (** Slots per row, [ces - 1].
      @raise Invalid_argument if [ces < 2]. *)

  val create : width:int -> int -> buf
  (** [create ~width n] is a zeroed buffer of [n] rows. *)

  val count : buf -> width:int -> int
  (** Rows in the buffer. *)

  val pipelined : buf -> width:int -> int -> int
  (** [pipelined buf ~width i] is row [i]'s pipelined depth [f]. *)

  val boundary : buf -> width:int -> int -> k:int -> int
  (** [boundary buf ~width i ~k] is row [i]'s [k]-th boundary slot
      ([k] in [0 .. width - 2]); 0 means the row's boundaries ended
      before slot [k]. *)

  val segments : buf -> width:int -> int -> int
  (** Row [i]'s tail segment count [s] (nonzero boundary slots + 1);
      the row's CE count is [pipelined + segments]. *)

  val encode : buf -> width:int -> at:int -> Arch.Custom.spec -> unit
  (** Write a spec into row [at].
      @raise Invalid_argument if the spec needs more than [width]
      slots or violates the row invariants ([f >= 1], boundaries
      [>= 2]). *)

  val decode : buf -> width:int -> int -> Arch.Custom.spec
  (** Read row [i] back as a list-based spec.
      [decode] after {!encode} is the identity on valid specs. *)

  val enumerate : num_layers:int -> ces:int -> max_specs:int -> buf
  (** All specs with exactly [ces] engines in lexicographic order —
      the same order, count, and cap behaviour as
      [Enumerate.enumerate_specs] — written straight into a fresh
      buffer of [min max_specs (designs_capped ...)] rows.
      @raise Invalid_argument if [ces < 2]. *)
end

val random_spec :
  Util.Prng.t -> num_layers:int -> ce_counts:int list -> Arch.Custom.spec
(** [random_spec rng ~num_layers ~ce_counts] draws a design uniformly
    enough for exploration: a CE count from [ce_counts], a split of it
    into [f] and [s], and [s - 1] distinct random boundaries.
    @raise Invalid_argument if [ce_counts] is empty or infeasible for
    the layer count. *)
