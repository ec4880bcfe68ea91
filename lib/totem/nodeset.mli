(** Sets of node ids as bitsets, for Totem's membership protocol.

    A set stores one bit per id over the span of 32-id words it touches (a
    base word plus a length), not over every id up to the largest one: a
    shard whose replicas are nodes 992–1023 holds one word, not 32.  Sizes
    are popcounts, and subset tests and unions run word by word.

    The mutable sets ({!t}) are a gather's own working sets; they are
    updated in place.  What goes on the wire is a {!snap}: a copy that no
    function in this interface can modify, so one [Join] can be shared by
    every receiver.  Reading functions accept either kind.

    Iteration ({!fold}, {!iter}, {!elements}) is in ascending id order and
    {!min_elt} is the smallest id, exactly as for {!Netsim.Node_id.Set}, so
    swapping one for the other does not reorder anything the protocol
    does. *)

type mut
type frozen

type 'k set
(** ['k] is {!mut} for a mutable set and {!frozen} for a snapshot. *)

type t = mut set
type snap = frozen set

val create : unit -> t
(** A new empty set. *)

val singleton : Netsim.Node_id.t -> t
val of_list : Netsim.Node_id.t list -> t
val copy : _ set -> t
val snapshot : t -> snap

val add : t -> Netsim.Node_id.t -> unit
val remove : t -> Netsim.Node_id.t -> unit

val clear : t -> unit
(** Empties the set, keeping its span. *)

val union_into : t -> _ set -> unit
(** [union_into dst src] adds every element of [src] to [dst]. *)

val diff : _ set -> _ set -> t
(** [diff a b] is a new set of the elements of [a] not in [b]. *)

val mem : _ set -> Netsim.Node_id.t -> bool
val cardinal : _ set -> int
val is_empty : _ set -> bool

val subset : _ set -> _ set -> bool
(** [subset a b] is [a ⊆ b]. *)

val subset_except : Netsim.Node_id.t -> _ set -> _ set -> bool
(** [subset_except me a b] is [a \ {me} ⊆ b]. *)

val diff_subset : _ set -> _ set -> _ set -> bool
(** [diff_subset a b c] is [a \ b ⊆ c]: every element of [a] that is not in
    [b] is in [c].  The gather's agreement test: every live candidate
    ([proc_set \ fail_set]) is among the agreeing senders. *)

val min_elt : _ set -> Netsim.Node_id.t
(** Raises [Not_found] on the empty set. *)

val fold : (Netsim.Node_id.t -> 'a -> 'a) -> _ set -> 'a -> 'a
val iter : (Netsim.Node_id.t -> unit) -> _ set -> unit
val elements : _ set -> Netsim.Node_id.t list

(** A table indexed by node id over the span of ids it holds, with its
    keys kept as a node set. *)
module Table : sig
  type 'a t

  val create : unit -> 'a t
  val set : 'a t -> Netsim.Node_id.t -> 'a -> unit
  val mem : 'a t -> Netsim.Node_id.t -> bool

  val find : 'a t -> Netsim.Node_id.t -> 'a
  (** Raises [Not_found] when no value was set for the id. *)
end
