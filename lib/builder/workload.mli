(** Layer-to-engine assignment inside a pipelined block. *)

val slot_layers : ces:int -> first:int -> last:int -> slot:int -> int list
(** [slot_layers ~ces ~first ~last ~slot] is the layers engine slot
    [slot] of a [ces]-engine pipelined block over [first..last] runs:
    the layers are assigned round-robin, so slot [s] runs
    [first+s, first+s+ces, first+s+2*ces, ...] up to [last], in
    ascending order, and a slot beyond the layer count runs none.  With
    [~ces:1] and [~slot:0] it is [first..last], a single-CE block's
    layers.

    @raise Invalid_argument if [ces < 1]. *)
