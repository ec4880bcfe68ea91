(** Totem protocol timers and limits.

    Defaults are calibrated for the simulated testbed (4-node ring, hop
    latency ≈ 26 µs wire + 25 µs processing, rotation ≈ 204 µs): generous
    enough that membership never churns on a healthy ring, tight enough that
    fault detection completes within a few milliseconds. *)

(** Delivery guarantee: [Agreed] hands a message up as soon as every
    earlier message has been received locally (what the consistent time
    service needs); [Safe] additionally waits until the token shows that
    every ring member has received it (two-rotation stability), trading one
    extra rotation of latency for uniform delivery. *)
type delivery = Agreed | Safe

type t = {
  delivery : delivery;
  token_hold : Dsim.Time.Span.t;
      (** processing time per token visit before forwarding *)
  per_msg_cost : Dsim.Time.Span.t;
      (** additional hold time per message broadcast or retransmitted *)
  max_msgs_per_visit : int;
      (** flow control: new broadcasts allowed per token visit *)
  window : int;
      (** flow control: max messages on the ring per full rotation *)
  token_loss_timeout : Dsim.Time.Span.t;
      (** no token for this long while operational => membership change *)
  token_retransmit : Dsim.Time.Span.t;
      (** retransmit a forwarded token if it has not come back *)
  join_retransmit : Dsim.Time.Span.t;
      (** join tick: re-send Join while gathering, announcing any set
          growth heard since the last send *)
  consensus_timeout : Dsim.Time.Span.t;
      (** give up on silent candidates after this long in gather *)
  commit_timeout : Dsim.Time.Span.t;
      (** waiting for the representative's Commit *)
  recovery_retry : Dsim.Time.Span.t;
      (** re-flood offers / requests while recovering *)
  recovery_timeout : Dsim.Time.Span.t;
      (** abort recovery and re-gather after this long *)
  presence_interval : Dsim.Time.Span.t;
      (** period of the representative's presence beacon, which lets healed
          partitions remerge even when idle *)
}

val default : t
