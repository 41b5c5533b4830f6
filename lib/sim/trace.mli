(** Structured causal trace.

    Events are stored in a bounded ring buffer (O(1) append; oldest events
    are overwritten once full and counted in {!dropped}) and carry optional
    structure — a request-scoped trace id, a span id pairing start/end
    events, the emitting node, the cohort (key range), and an LSN — so tests
    and the {!Timeline} analyzer select on fields instead of string-matching
    details, and {!Trace_export} can lay events out on per-node/per-cohort
    tracks for Perfetto. *)

type t

type kind = Instant | Span_start | Span_end

type event = {
  at : Sim_time.t;
  tag : string;
  detail : string;
  kind : kind;
  trace_id : int;  (** -1 when not request-scoped *)
  span_id : int;  (** 0 for instants; pairs a [Span_start] with its [Span_end] *)
  node : int;  (** -1 when unknown *)
  cohort : int;  (** -1 when unknown *)
  lsn : string;  (** "" when not tied to a log position *)
}

val default_capacity : int

val create : ?capacity:int -> Engine.t -> t
(** Ring buffer holding at most [capacity] events (default
    {!default_capacity}, clamped to at least 1). *)

val enable : t -> bool -> unit
(** Disabled traces drop events (default: enabled). *)

val is_enabled : t -> bool
(** Hot emitters check this before formatting detail strings: a disabled
    trace must cost zero allocation, not a dropped-after-formatting event. *)

val capacity : t -> int

val length : t -> int
(** Number of currently retained events. *)

val dropped : t -> int
(** Events overwritten because the ring was full. *)

val event :
  t ->
  ?kind:kind ->
  ?trace_id:int ->
  ?span_id:int ->
  ?node:int ->
  ?cohort:int ->
  ?lsn:string ->
  tag:string ->
  string ->
  unit
(** Fully general emitter; the named emitters below cover the common cases. *)

val span_start :
  t ->
  ?trace_id:int ->
  ?node:int ->
  ?cohort:int ->
  ?lsn:string ->
  tag:string ->
  string ->
  int
(** Emit a [Span_start] and return the fresh span id to pass to
    {!span_end}. Span ids are unique per trace and never 0. *)

val span_end :
  t ->
  span:int ->
  ?trace_id:int ->
  ?node:int ->
  ?cohort:int ->
  ?lsn:string ->
  tag:string ->
  string ->
  unit

val request_trace_id : client:int -> request_id:int -> int
(** Deterministic trace id for a client request: every hop that knows the
    originating [(client, request_id)] pair derives the same id, so spans
    correlate across client, leader, and followers without protocol
    changes. *)

val iter : t -> (event -> unit) -> unit
(** In emission order (oldest retained first); allocation-free. *)

val events : t -> event list
(** In emission order (oldest retained first). *)

val find : t -> tag:string -> event list

val count : t -> tag:string -> int

val clear : t -> unit

val pp : Format.formatter -> t -> unit

type trace = t
(** Alias so {!Flight} can name the enclosing trace type. *)

(** Outlier flight recorder: pins the full causal traces of the top-K slowest
    requests per time window by copying their events out of the ring at
    completion time, so tail outliers survive ring-buffer eviction. Recording
    never schedules events or draws randomness, so it cannot perturb a
    deterministic run; with the trace disabled, {!Flight.note} is a no-op. *)
module Flight : sig
  type outlier = {
    trace_id : int;
    latency_us : float;
    completed_at : Sim_time.t;
    events : event list;  (** the request's events, oldest first *)
    incomplete : bool;
        (** the ring evicted the head of this request's trace before it
            completed, so [events] is missing its earliest entries *)
  }

  type t

  val create : ?top_k:int -> ?window:Sim_time.span -> trace -> t
  (** [top_k] defaults to 5 pins per window; [window] defaults to 1 s. *)

  val note : t -> trace_id:int -> started:Sim_time.t -> unit
  (** Report a completed request. If it ranks among the current window's
      top-K slowest, its events are copied out of the ring (an O(ring) scan,
      only paid on admission). Call at request completion time: latency is
      measured from [started] to now. *)

  val outliers : t -> outlier list
  (** All pinned outliers (current window plus retained closed windows),
      slowest first. *)

  val pinned : t -> int
  (** Number of currently pinned outliers. *)

  val top_k : t -> int

  val clear : t -> unit
end
