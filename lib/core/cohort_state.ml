(* Shared state of one replica of a range's cohort, and the helpers every
   layer uses: tracing, incarnation-guarded callbacks, the duplicate cache.
   The layers build on this in dependency order: [Cohort_read] (read gate),
   [Cohort_election] (election and takeover start), [Cohort_ops] (what a
   write appends), [Cohort_replication] (write/commit cycle, follower path,
   catch-up), [Cohort_membership] (migration and split), then [Cohort]. *)

module Lsn = Storage.Lsn
module Store = Storage.Store
module Wal = Storage.Wal
module Log_record = Storage.Log_record
module Row = Storage.Row
module Skipped_lsns = Storage.Skipped_lsns
module Int_map = Map.Make (Int)

type role = Offline | Candidate | Leader | Follower

(* The fields are documented in cohort.mli. *)
type ctx = {
  engine : Sim.Engine.t;
  node_id : int;
  range : int;
  config : Config.t;
  store : Storage.Store.t;
  wal : Storage.Wal.t;
  cpu : Sim.Resource.t;
  trace : Sim.Trace.t;
  send : ?trace_id:int -> dst:int -> Message.t -> unit;
  reply : client:int -> request_id:int -> Message.client_reply -> unit;
  zk : unit -> Coord.Zk_client.t;
  incarnation : unit -> int;
  routes_here : Storage.Row.key -> bool;
  range_bounds : unit -> Storage.Row.key * Storage.Row.key;
  members : unit -> int list;
  xfer : Sim.Resource.t;
  apply_meta : op:Storage.Log_record.op -> leader:bool -> unit;
  retire_self : unit -> unit;
  resolve_in_doubt : txn:Storage.Row.key -> anchor:Storage.Row.key -> key:Storage.Row.key -> unit;
}

type waiting_write = { client : int; request_id : int; op : Message.client_op }

(* ------------------------------------------------------------------ *)
(* The read gate's own state ([Cohort_read]).                           *)

(* Unleased strong read awaiting its read-index quorum: it is served once a
   majority of followers confirm this leader's epoch is still current
   (quorum intersection with any takeover quorum guarantees no newer leader
   has committed anything yet). *)
type pending_guard = {
  g_finish : Message.client_reply -> unit;
      (** answer the request, closing its [phase.read] span *)
  g_serve : unit -> unit;  (** submit the read to the CPU *)
  mutable g_acks : int list;  (** distinct follower acks so far *)
  g_span : int;  (** open [read.guard] span (0 when untraced) *)
  g_trace_id : int;
}

(* Timeline read parked behind its read-your-writes token: served once the
   applied commit point reaches the token, redirected to the leader if the
   staleness bound passes first. *)
type parked_read = {
  p_finish : Message.client_reply -> unit;
  p_token : Storage.Lsn.t;
  p_serve : unit -> unit;
  mutable p_done : bool;  (** served or redirected; the deadline is a no-op *)
  p_wait_span : int;  (** open [read.wait_lsn] span (0 when untraced) *)
  p_trace_id : int;
}

(* Read-path counters, cluster-lifetime (crash does not reset them — they
   feed bench series, like the write-phase histograms). *)
type read_stats = {
  mutable leased : int;  (** strong reads served locally under a live lease *)
  mutable guarded : int;  (** strong reads served via a read-index quorum round *)
  mutable lease_rejects : int;  (** strong reads refused because the lease lapsed *)
  mutable guard_fails : int;  (** guard rounds that timed out without a quorum *)
  mutable leader_timeline : int;  (** timeline reads served by the leader *)
  mutable follower_timeline : int;  (** timeline reads served by a follower *)
  mutable token_waits : int;  (** timeline reads parked for cmt to reach a token *)
  mutable token_redirects : int;  (** parked reads that hit the staleness bound *)
}

type read_gate = {
  mutable lease_disabled : bool;
      (** runtime override forcing the unleased (quorum-guard) strong-read
          path even when [Config.lease_fraction] > 0; a bench knob, so it
          survives crashes like the config itself *)
  mutable guard_seq : int;
  guards : (int, pending_guard) Hashtbl.t;
      (** outstanding read-index rounds, keyed by guard sequence number *)
  mutable parked : parked_read list;  (** newest first *)
  stats : read_stats;
}

(* ------------------------------------------------------------------ *)
(* The 2PC participant's leader-term state ([Cohort_ops]): rebuilt from
   store + queue when the cohort opens, dropped when the term ends.      *)

type txn_state = {
  locks : (Row.coord, string) Hashtbl.t;
      (** base coordinate -> transaction holding a write intent there, granted
          when the prepare is appended (before it commits — the queue overlay
          alone cannot refuse a conflicting prepare racing in the same term) *)
  pending_decisions : (string, bool * int) Hashtbl.t;
      (** txn -> (commit, ts): decision appended this term, possibly not yet
          applied; first decision wins even against a racing status query *)
  resolving : (string, unit) Hashtbl.t;
      (** txns whose resolve record is appended but not yet applied
          (double-append guard for retried resolve requests) *)
  mutable sweep_armed : bool;  (** presumed-abort sweep timer running *)
}

(* Outcome of a client write, remembered per (client, request id) so a
   duplicated or retried request is answered idempotently instead of being
   applied a second time (clients retry under loss and leader changes). *)
type dedup_state = In_flight | Done of Message.client_reply

(* Per leader-tracked write (keyed by its last LSN): the append instant for
   the phase histograms plus the request's trace id and open force and
   replication spans, closed where those phases end. *)
type inflight = { started : Sim.Sim_time.t; trace_id : int; force_span : int; repl_span : int }

(* Leader-side replica-migration state (§10): ship a snapshot of the store to
   the joiner stop-and-wait, then run WAL catch-up from the snapshot horizon,
   then commit a [Cohort_change] record that swaps the joiner in. *)
type migration = {
  joiner : int;
  remove : int option;  (** the replica the joiner replaces, if any *)
  chunks : (Row.coord * Row.cell) list array;
  upto : Lsn.t;  (** snapshot commit horizon; catch-up resumes here *)
  mutable next_chunk : int;
  mutable phase : [ `Snapshot | `Catchup | `Change ];
  mutable attempts : int;  (** retransmissions of the current chunk *)
}

type t = {
  ctx : ctx;
  mutable role : role;
  mutable epoch : int;  (** highest leadership epoch seen *)
  mutable cmt : Lsn.t;
  mutable lst : Lsn.t;
  queue : Commit_queue.t;
  mutable leader : int option;
  (* leader state *)
  mutable open_for_writes : bool;
  mutable active_followers : int list;
  mutable pending_final : int list;  (** followers in a blocked final catch-up round *)
  mutable takeover_pending : bool;
  mutable takeover_open_at : Lsn.t;
      (** lst captured at takeover start: the cohort may not reopen until cmt
          reaches it (the re-proposed tail of Figure 6 line 9 has committed) *)
  mutable takeover_commit_wait : bool;
      (** the takeover has its follower quorum but the re-proposed (cmt, lst]
          tail is not yet committed; [try_commit] opens the cohort once it is *)
  mutable waiting : waiting_write list;  (** writes queued while closed/blocked, newest first *)
  mutable unproposed : (Lsn.t * Storage.Log_record.op * int * (int * int) option) list;
      (** newest first: appended+forced locally but held back because the
          replication pipeline window ([Config.pipeline_depth]) is full;
          shipped as one batched Propose when a slot frees *)
  inflight_props : Lsn.t Queue.t;
      (** highest LSN of each outstanding Propose batch; a batch retires
          when cmt reaches it *)
  mutable commit_timer_armed : bool;
  dedup : (int, dedup_state Int_map.t) Hashtbl.t;
      (** client -> request id -> write outcome, for duplicate suppression;
          at most [dedup_window] ids per client *)
  mutable migration : migration option;  (** leader-side migration in flight *)
  mutable splitting : bool;  (** a range split is being logged; writes block *)
  (* follower state *)
  mutable catching_up : bool;
  mutable learner : bool;
      (** a joining replica that is not yet a cohort member: it receives the
          snapshot and catch-up but must not vote in elections, and its acks
          do not count toward the old configuration's majority *)
  mutable snapshot_next : int;
      (** next snapshot chunk sequence expected (crash-safe resume gate: a
          chunk out of order is never acked, so a restarted joiner cannot
          silently miss a prefix) *)
  mutable last_leader_msg : Sim.Sim_time.t;
      (** last accepted leader traffic; silence beyond a few commit periods
          means our propose stream may have a hole we cannot see *)
  mutable resync_armed : bool;
  mutable ack_pending : (int * Lsn.t * int) option;
      (** (leader, upto, trace id) of a coalesced cumulative ack not yet sent
          ([Config.ack_coalesce] > 0); the trace id belongs to the newest
          write the ack covers (-1 when untraced) *)
  mutable ack_timer_armed : bool;
  (* election state *)
  mutable election_running : bool;
  mutable own_candidate : string option;
  mutable leader_watch_armed : bool;
  gate : read_gate;
  (* instrumentation *)
  phases : Sim.Metrics.Write_phases.t;
      (** per-phase write-path latencies for writes this cohort led *)
  inflight_started : (Lsn.t, inflight) Hashtbl.t;
      (** in-flight state of each leader-tracked write, keyed by its last LSN *)
  txn : txn_state;
}

let create ctx =
  {
    ctx;
    role = Offline;
    epoch = 0;
    cmt = Lsn.zero;
    lst = Lsn.zero;
    queue = Commit_queue.create ();
    leader = None;
    open_for_writes = false;
    active_followers = [];
    pending_final = [];
    takeover_pending = false;
    takeover_open_at = Lsn.zero;
    takeover_commit_wait = false;
    waiting = [];
    unproposed = [];
    inflight_props = Queue.create ();
    commit_timer_armed = false;
    dedup = Hashtbl.create 64;
    migration = None;
    splitting = false;
    catching_up = false;
    learner = false;
    snapshot_next = 0;
    last_leader_msg = Sim.Sim_time.zero;
    resync_armed = false;
    ack_pending = None;
    ack_timer_armed = false;
    election_running = false;
    own_candidate = None;
    leader_watch_armed = false;
    gate =
      {
        lease_disabled = false;
        guard_seq = 0;
        guards = Hashtbl.create 16;
        parked = [];
        stats =
          {
            leased = 0;
            guarded = 0;
            lease_rejects = 0;
            guard_fails = 0;
            leader_timeline = 0;
            follower_timeline = 0;
            token_waits = 0;
            token_redirects = 0;
          };
      };
    phases = Sim.Metrics.Write_phases.create ();
    inflight_started = Hashtbl.create 64;
    txn =
      {
        locks = Hashtbl.create 16;
        pending_decisions = Hashtbl.create 16;
        resolving = Hashtbl.create 16;
        sweep_armed = false;
      };
  }

let zk_prefix t = Printf.sprintf "/ranges/%d" t.ctx.range
let zk_candidates t = zk_prefix t ^ "/candidates"
let zk_leader t = zk_prefix t ^ "/leader"
let zk_epoch t = zk_prefix t ^ "/epoch"

let others t = List.filter (fun m -> m <> t.ctx.node_id) (t.ctx.members ())

let role_name = function
  | Leader -> "leader"
  | Follower -> "follower"
  | Candidate -> "candidate"
  | Offline -> "offline"

(* Cohort events are structured instants carrying node and cohort fields;
   the "r%d n%d" detail prefix is kept for log readability and for existing
   consumers that grep details. *)
let tracing t = Sim.Trace.is_enabled t.ctx.trace

let trace t tag detail =
  if tracing t then
    Sim.Trace.event t.ctx.trace ~node:t.ctx.node_id ~cohort:t.ctx.range ~tag
      (Printf.sprintf "r%d n%d %s" t.ctx.range t.ctx.node_id detail)

let span_start t ?trace_id ?lsn ~tag detail =
  if tracing t then
    Sim.Trace.span_start t.ctx.trace ?trace_id ~node:t.ctx.node_id ~cohort:t.ctx.range ?lsn
      ~tag detail
  else 0

let span_end t ~span ?trace_id ?lsn ~tag detail =
  if span <> 0 then
    Sim.Trace.span_end t.ctx.trace ~span ?trace_id ~node:t.ctx.node_id ~cohort:t.ctx.range ?lsn
      ~tag detail

(* Schedule a callback that is dropped if the node crashed/restarted since. *)
let after t span k =
  let inc = t.ctx.incarnation () in
  ignore
    (Sim.Engine.schedule t.ctx.engine ~after:span (fun () ->
         if t.ctx.incarnation () = inc && t.role <> Offline then k ()))

(* Likewise for callbacks of asynchronous operations (log forces, ZK). *)
let guard t k =
  let inc = t.ctx.incarnation () in
  fun x -> if t.ctx.incarnation () = inc && t.role <> Offline then k x

let now_us t = Sim.Sim_time.time_to_us (Sim.Engine.now t.ctx.engine)

(* ------------------------------------------------------------------ *)
(* Duplicate suppression: retried writes must be acked idempotently.    *)

(* Request ids are per-client monotonic and retries only ever target recent
   ids, so the cache keeps, per client, only the ids within [dedup_window] of
   the newest it holds. A cohort sees only the ids of the writes routed to its
   range, so the window is cut by id, not by evicting one fixed id. *)
let dedup_window = 128

let dedup_find t ~client ~request_id =
  match Hashtbl.find_opt t.dedup client with
  | Some ids -> Int_map.find_opt request_id ids
  | None -> None

let dedup_set t ~client ~request_id state =
  let ids =
    Int_map.add request_id state
      (Option.value (Hashtbl.find_opt t.dedup client) ~default:Int_map.empty)
  in
  let newest, _ = Int_map.max_binding ids and oldest, _ = Int_map.min_binding ids in
  let ids =
    if oldest > newest - dedup_window then ids
    else
      let _, _, window = Int_map.split (newest - dedup_window) ids in
      window
  in
  Hashtbl.replace t.dedup client ids

let cache_outcome t origin reply =
  match origin with
  | None -> ()
  | Some (client, request_id) -> dedup_set t ~client ~request_id (Done reply)

let reply_write t ~client ~request_id reply =
  cache_outcome t (Some (client, request_id)) reply;
  t.ctx.reply ~client ~request_id reply

let clear_in_flight t ~client ~request_id =
  match Hashtbl.find_opt t.dedup client with
  | Some ids -> (
    match Int_map.find_opt request_id ids with
    | Some In_flight ->
      let ids = Int_map.remove request_id ids in
      if Int_map.is_empty ids then Hashtbl.remove t.dedup client
      else Hashtbl.replace t.dedup client ids
    | _ -> ())
  | None -> ()

(* Release the in-flight markers of queue entries dropped without
   committing, so a client retry is not silently swallowed later. *)
let clear_dropped t entries =
  List.iter
    (fun (e : Commit_queue.entry) ->
      match e.Commit_queue.origin with
      | Some (client, request_id) -> clear_in_flight t ~client ~request_id
      | None -> ())
    entries

(* Refuse a write that will not be logged here, releasing its in-flight
   marker so the client's retry elsewhere (or later) is not swallowed. *)
let refuse_write t ~client ~request_id reply =
  clear_in_flight t ~client ~request_id;
  t.ctx.reply ~client ~request_id reply

(* This replica stopped leading: every write queued behind the closed cohort
   is answered [Unavailable] so its client fails over at once. *)
let fail_waiting t =
  let waiting = t.waiting in
  t.waiting <- [];
  List.iter
    (fun w -> refuse_write t ~client:w.client ~request_id:w.request_id Message.Unavailable)
    waiting

(* The settled-outcome reply for a committed record: a 2PC decision answers
   with the outcome it recorded (a client retrying its decide after a
   coordinator failover must learn commit/abort, not a bare LSN); every other
   write acks [Written]. *)
let reply_for_record (op : Log_record.op) ~lsn =
  match op with
  | Log_record.Txn_decision { commit; ts; _ } ->
    Message.Txn_decided { committed = commit; ts }
  | _ -> Message.Written { lsn }

(* Re-learn committed outcomes from our own durable log: the max-lst election
   rule (Figure 7) guarantees a new leader's log contains every committed
   write, so this rebuild makes the leader-side duplicate cache complete even
   across crashes and leader changes. Logically truncated LSNs never
   committed and must not be remembered as done. *)
let recache_outcomes_from_log t ~above ~upto =
  List.iter
    (fun (lsn, op, _, origin) ->
      if not (Storage.Skipped_lsns.mem (Store.skipped t.ctx.store) lsn) then
        cache_outcome t origin (reply_for_record op ~lsn))
    (Wal.durable_writes_in t.ctx.wal ~cohort:t.ctx.range ~above ~upto)

(* Logical truncation (§6.1.1): durable log records that never committed go
   on the skipped-LSN list, so local recovery never re-applies them. *)
let truncate_logically t lsns =
  if lsns <> [] then begin
    Skipped_lsns.add (Store.skipped t.ctx.store) lsns;
    trace t "logical_truncation" (String.concat "," (List.map Lsn.to_string lsns))
  end

(* Writes stop until a new takeover reopens the cohort. *)
let close_for_writes t =
  t.open_for_writes <- false;
  t.takeover_pending <- false;
  t.takeover_commit_wait <- false

let abort_migration t reason =
  match t.migration with
  | None -> ()
  | Some m ->
    (* Clean abort: the membership change was never logged, so the layout is
       untouched; the stranded learner retires itself on its own timeout. *)
    trace t "migration_abort" (Printf.sprintf "joiner=n%d %s" m.joiner reason);
    t.migration <- None
