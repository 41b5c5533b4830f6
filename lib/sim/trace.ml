(* Structured causal trace.

   Events live in a bounded ring buffer: appending is O(1), and once the
   buffer is full the oldest events are overwritten (counted in [dropped]) so
   long chaos runs cannot accumulate unbounded history. Every event carries
   optional structure — a request-scoped trace id, a span id pairing
   [Span_start]/[Span_end] events, the emitting node, the cohort (key range),
   and an LSN rendered as a string — so tests and the timeline analyzer can
   select on fields instead of string-matching details, and the Chrome
   trace-event exporter can place events on per-node/per-cohort tracks. *)

type kind = Instant | Span_start | Span_end

type event = {
  at : Sim_time.t;
  tag : string;
  detail : string;
  kind : kind;
  trace_id : int;  (** -1 when not request-scoped *)
  span_id : int;  (** 0 for instants; pairs a start with its end *)
  node : int;  (** -1 when unknown *)
  cohort : int;  (** -1 when unknown *)
  lsn : string;  (** "" when not tied to a log position *)
}

type t = {
  engine : Engine.t;
  mutable enabled : bool;
  buf : event array;
  cap : int;
  mutable start : int;  (** index of the oldest retained event *)
  mutable len : int;
  mutable dropped : int;
  mutable next_span : int;
}

let default_capacity = 65_536

let dummy =
  {
    at = Sim_time.zero;
    tag = "";
    detail = "";
    kind = Instant;
    trace_id = -1;
    span_id = 0;
    node = -1;
    cohort = -1;
    lsn = "";
  }

let create ?(capacity = default_capacity) engine =
  let cap = Stdlib.max 1 capacity in
  {
    engine;
    enabled = true;
    buf = Array.make cap dummy;
    cap;
    start = 0;
    len = 0;
    dropped = 0;
    next_span = 0;
  }

let enable t flag = t.enabled <- flag
let is_enabled t = t.enabled
let capacity t = t.cap
let length t = t.len
let dropped t = t.dropped

let push t e =
  if t.enabled then begin
    if t.len = t.cap then begin
      t.buf.(t.start) <- e;
      t.start <- (t.start + 1) mod t.cap;
      t.dropped <- t.dropped + 1
    end
    else begin
      t.buf.((t.start + t.len) mod t.cap) <- e;
      t.len <- t.len + 1
    end
  end

let event t ?(kind = Instant) ?(trace_id = -1) ?(span_id = 0) ?(node = -1) ?(cohort = -1)
    ?(lsn = "") ~tag detail =
  push t { at = Engine.now t.engine; tag; detail; kind; trace_id; span_id; node; cohort; lsn }

let span_start t ?trace_id ?node ?cohort ?lsn ~tag detail =
  t.next_span <- t.next_span + 1;
  let id = t.next_span in
  event t ~kind:Span_start ?trace_id ~span_id:id ?node ?cohort ?lsn ~tag detail;
  id

let span_end t ~span ?trace_id ?node ?cohort ?lsn ~tag detail =
  event t ~kind:Span_end ?trace_id ~span_id:span ?node ?cohort ?lsn ~tag detail

(* (client, request id) pairs are unique, so a deterministic packing gives
   every client request the same trace id at every hop without threading new
   state through the message protocol. Request ids wrap into 24 bits; clients
   retire ids long before 16M in-flight requests, so collisions are moot. *)
let request_trace_id ~client ~request_id = (client lsl 24) lxor (request_id land 0xFFFFFF)

let iter t f =
  for i = 0 to t.len - 1 do
    f t.buf.((t.start + i) mod t.cap)
  done

let events t = List.init t.len (fun i -> t.buf.((t.start + i) mod t.cap))
let find t ~tag = List.filter (fun e -> String.equal e.tag tag) (events t)

let count t ~tag =
  let n = ref 0 in
  iter t (fun e -> if String.equal e.tag tag then incr n);
  !n

let clear t =
  t.start <- 0;
  t.len <- 0;
  t.dropped <- 0

let pp ppf t =
  iter t (fun e ->
      Format.fprintf ppf "[%a] %-18s %s@." Sim_time.pp e.at e.tag e.detail)

type trace = t

(* ------------------------------------------------------------------ *)
(* Outlier flight recorder.

   The ring buffer forgets: under load, a slow request's events are often
   evicted minutes before anyone asks why it was slow. The flight recorder
   pins full causal traces of the top-K slowest requests per time window by
   copying their events out of the ring at completion time — an O(ring) scan
   that only runs when a request beats the window's current K-th slowest, so
   after warm-up it is rare. It never schedules events or draws randomness,
   so enabling it cannot perturb a deterministic run. *)

module Flight = struct
  type outlier = {
    trace_id : int;
    latency_us : float;
    completed_at : Sim_time.t;
    events : event list;
    incomplete : bool;
  }

  type t = {
    trace : trace;
    top_k : int;
    window : Sim_time.span;
    mutable window_open : Sim_time.t;
    mutable current : outlier list;  (* descending latency, length <= top_k *)
    mutable retained : outlier list;  (* pins from closed windows, newest first *)
    mutable windows : int;  (* closed windows that retained at least one pin *)
  }

  (* Long chaos runs close thousands of windows; keep the most recent pins
     bounded rather than growing without limit. *)
  let max_retained_windows = 64

  let create ?(top_k = 5) ?(window = Sim_time.sec 1) trace =
    {
      trace;
      top_k;
      window;
      window_open = Sim_time.zero;
      current = [];
      retained = [];
      windows = 0;
    }

  let rotate f now =
    if Sim_time.span_compare (Sim_time.diff now f.window_open) f.window >= 0 then begin
      if f.current <> [] then begin
        f.retained <- f.current @ f.retained;
        f.windows <- f.windows + 1;
        let cap = max_retained_windows * f.top_k in
        if List.length f.retained > cap then
          f.retained <- List.filteri (fun i _ -> i < cap) f.retained
      end;
      f.current <- [];
      f.window_open <- now
    end

  (* Copy the request's events out of the ring. Eviction is oldest-first, so
     if the request's earliest event (emitted at [started]) survives, every
     later one does too; a first event newer than [started] means the head of
     the trace was already overwritten. *)
  let capture trace ~trace_id ~started =
    let evs = ref [] in
    iter trace (fun e -> if e.trace_id = trace_id then evs := e :: !evs);
    let events = List.rev !evs in
    let incomplete =
      match events with [] -> true | first :: _ -> Sim_time.(first.at > started)
    in
    (events, incomplete)

  let note f ~trace_id ~started =
    if f.trace.enabled && trace_id >= 0 && f.top_k > 0 then begin
      let now = Engine.now f.trace.engine in
      rotate f now;
      let latency_us = float_of_int (Sim_time.to_us (Sim_time.diff now started)) in
      let full = List.length f.current >= f.top_k in
      let floor_latency =
        if not full then neg_infinity
        else match List.rev f.current with o :: _ -> o.latency_us | [] -> neg_infinity
      in
      if latency_us > floor_latency then begin
        let events, incomplete = capture f.trace ~trace_id ~started in
        let o = { trace_id; latency_us; completed_at = now; events; incomplete } in
        let rec insert = function
          | [] -> [ o ]
          | x :: rest ->
            if o.latency_us > x.latency_us then o :: x :: rest else x :: insert rest
        in
        let inserted = insert f.current in
        f.current <-
          (if full then List.filteri (fun i _ -> i < f.top_k) inserted else inserted)
      end
    end

  let outliers f =
    List.sort
      (fun a b -> compare b.latency_us a.latency_us)
      (f.current @ f.retained)

  let pinned f = List.length f.current + List.length f.retained
  let top_k f = f.top_k

  let clear f =
    f.current <- [];
    f.retained <- [];
    f.windows <- 0;
    f.window_open <- Sim_time.zero
end
