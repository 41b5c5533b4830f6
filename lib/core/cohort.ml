(* The per-range replica: lifecycle, message dispatch and accessors over the
   layers in [Cohort_state] .. [Cohort_membership] (see cohort_state.ml for
   their dependency order). *)

open Cohort_state

type role = Cohort_state.role = Offline | Candidate | Leader | Follower

type ctx = Cohort_state.ctx = {
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

type read_stats = Cohort_state.read_stats = {
  mutable leased : int;
  mutable guarded : int;
  mutable lease_rejects : int;
  mutable guard_fails : int;
  mutable leader_timeline : int;
  mutable follower_timeline : int;
  mutable token_waits : int;
  mutable token_redirects : int;
}

type t = Cohort_state.t

let create = Cohort_state.create
let dedup_window = Cohort_state.dedup_window
let chaos_ack_past_holes = Cohort_replication.chaos_ack_past_holes
let role t = t.role
let leader_id t = t.leader
let read_stats t = t.gate.stats
let set_lease_disabled t v = t.gate.lease_disabled <- v
let lease_valid = Cohort_read.lease_valid
let epoch t = t.epoch
let cmt t = t.cmt
let lst t = t.lst
let is_open t = t.role = Leader && t.open_for_writes
let pending_writes t = Commit_queue.length t.queue
let reply_cache_size t = Hashtbl.fold (fun _ ids n -> n + Int_map.cardinal ids) t.dedup 0
let store t = t.ctx.store
let is_learner t = t.learner
let migrating t = Option.is_some t.migration
let read_local t coord = Store.read t.ctx.store coord
let write_phases t = t.phases
let skipped_lsns t = Skipped_lsns.to_list (Store.skipped t.ctx.store)
let request_join = Cohort_membership.request_join
let request_split = Cohort_membership.request_split
let start_learner = Cohort_membership.start_learner

(* ------------------------------------------------------------------ *)
(* Lifecycle.                                                           *)

(* Drop this replica from the node: waiting writers, read-index rounds and
   parked reads are refused, the role goes Offline so every guarded callback
   dies, and any leader-owned election znodes are released so the remaining
   members can elect. The node layer forgets the cohort and drops its log
   records. *)
let retire t =
  if t.role <> Offline then begin
    trace t "retire"
      (Printf.sprintf "role=%s%s" (role_name t.role) (if t.learner then " (learner)" else ""));
    fail_waiting t;
    Cohort_read.fail_guards t;
    Cohort_read.refuse_parked t;
    let zk = t.ctx.zk () in
    (match t.own_candidate with
    | Some path -> Coord.Zk_client.delete_node zk ~path (fun _ -> ())
    | None -> ());
    if t.role = Leader then Coord.Zk_client.delete_node zk ~path:(zk_leader t) (fun _ -> ());
    t.role <- Offline;
    t.leader <- None;
    close_for_writes t;
    t.migration <- None;
    t.splitting <- false;
    t.learner <- false;
    t.snapshot_next <- 0;
    t.election_running <- false;
    t.own_candidate <- None
  end

let crash t =
  t.role <- Offline;
  t.epoch <- 0;
  t.cmt <- Lsn.zero;
  t.lst <- Lsn.zero;
  ignore (Commit_queue.drop_above t.queue Lsn.zero);
  t.leader <- None;
  close_for_writes t;
  t.active_followers <- [];
  t.pending_final <- [];
  t.waiting <- [];
  t.commit_timer_armed <- false;
  Hashtbl.reset t.dedup;
  t.migration <- None;
  t.splitting <- false;
  t.catching_up <- false;
  t.learner <- false;
  t.snapshot_next <- 0;
  t.last_leader_msg <- Sim.Sim_time.zero;
  t.resync_armed <- false;
  t.election_running <- false;
  t.own_candidate <- None;
  t.leader_watch_armed <- false;
  Cohort_read.crash t;
  (* Accumulated phase samples survive the crash (cluster-lifetime metrics);
     in-flight tracking does not — those writes will never pop. *)
  Hashtbl.reset t.inflight_started;
  Cohort_ops.reset_txn_state t;
  t.txn.sweep_armed <- false;
  Store.crash t.ctx.store

let wipe_storage t = Store.wipe t.ctx.store

(* The honest last-LSN claim after recovery: the largest LSN reachable from
   cmt by walking consecutive sequence numbers through the durable log
   (taking the newest epoch where a seq was written twice). The raw log tail
   can sit beyond a loss-induced hole, and advertising it in an election
   (Figure 7) could out-bid the replica actually holding a committed write. *)
let recovered_contiguous_lst t ~cmt ~raw =
  let by_seq =
    List.fold_left
      (fun m (lsn, _, _, _) -> Int_map.add lsn.Lsn.seq lsn m)
      Int_map.empty
      (Wal.durable_writes_in t.ctx.wal ~cohort:t.ctx.range ~above:cmt ~upto:raw)
  in
  let rec walk seq best =
    match Int_map.find_opt (seq + 1) by_seq with
    | Some lsn -> walk (seq + 1) lsn
    | None -> best
  in
  walk cmt.Lsn.seq cmt

let rejoin t =
  (* Local recovery first (§6.1): rebuild the memtable from the checkpoint
     through f.cmt; writes after f.cmt await the catch-up phase. *)
  let cmt, lst = Store.recover t.ctx.store in
  t.cmt <- cmt;
  t.lst <- recovered_contiguous_lst t ~cmt ~raw:lst;
  t.epoch <- lst.Lsn.epoch;
  t.role <- Candidate;
  (* Re-learn committed write outcomes from the durable log so duplicate
     suppression survives the crash: a client retrying a write this replica
     committed before going down must get an idempotent ack, not a second
     application. *)
  recache_outcomes_from_log t ~above:Lsn.zero ~upto:cmt;
  trace t "local_recovery"
    (Printf.sprintf "cmt=%s lst=%s" (Lsn.to_string cmt) (Lsn.to_string lst));
  Cohort_election.join_cohort t

(* Fresh boot is the restart path: local recovery (a no-op on an empty log)
   followed by election or follower catch-up (§7: "leader election is
   triggered whenever a cohort's leader has failed or following local
   recovery after a system restart"). *)
let startup = rejoin

(* The coordination-service session expired (§7): a leader must stop serving
   immediately — its znode is gone, so a new leader may be elected at any
   moment — and any replica loses its watches with the session. The node
   layer re-establishes a session and calls [zk_session_renewed], which
   re-reads the leader and falls back in line. *)
let zk_session_expired t =
  if t.role <> Offline then begin
    trace t "zk_session_expired" (Printf.sprintf "role=%s" (role_name t.role));
    if t.role = Leader then begin
      fail_waiting t;
      (* The session is gone, so the lease is too; in-flight guard rounds can
         never complete under an epoch a new leader may already have beaten. *)
      Cohort_read.fail_guards t
    end;
    t.role <- (if t.learner then Follower else Candidate);
    t.leader <- None;
    close_for_writes t;
    t.pending_final <- [];
    t.active_followers <- [];
    t.migration <- None;
    t.splitting <- false;
    t.catching_up <- false;
    t.election_running <- false;
    t.own_candidate <- None;
    t.leader_watch_armed <- false;
    (* Leader-term transaction state dies with the term; the next leader
       rebuilds it from its store and queue when the cohort reopens. *)
    Cohort_ops.reset_txn_state t
  end

let zk_session_renewed t =
  if t.role <> Offline && not t.learner then Cohort_election.join_cohort t

(* ------------------------------------------------------------------ *)
(* Dispatch.                                                            *)

let handle_client t ~client ~request_id op =
  match op with
  | Message.Get { key; col; consistent; token } ->
    Cohort_read.handle_read t ~client ~request_id ~consistent ~token ~key ~cols:[ col ]
      ~single:true
  | Message.Multi_get { key; cols; consistent; token } ->
    Cohort_read.handle_read t ~client ~request_id ~consistent ~token ~key ~cols ~single:false
  | Message.Scan { start_key; end_key; limit; consistent; token } ->
    Cohort_read.handle_scan t ~client ~request_id ~start_key ~end_key ~limit ~consistent ~token
  | Message.Fence _ -> Cohort_read.handle_fence t ~client ~request_id
  | Message.Snap_get { key; col; fence; fence_ts } ->
    Cohort_read.handle_snap_get t ~client ~request_id ~key ~col ~fence ~fence_ts
  | _ -> Cohort_replication.handle_write t ~client ~request_id op

let handle_peer t ~src ~sent_at msg =
  match msg with
  | Message.Propose { epoch; writes; piggyback_cmt; _ } ->
    Cohort_replication.handle_propose t ~src ~sent_at ~epoch ~writes ~piggyback_cmt
  | Message.Ack { from; upto; _ } -> Cohort_replication.handle_ack t ~sent_at ~from ~upto
  | Message.Commit { epoch; upto; _ } -> Cohort_replication.handle_commit t ~src ~epoch ~upto
  | Message.Read_guard { epoch; seq; _ } -> Cohort_replication.handle_guard t ~src ~epoch ~seq
  | Message.Read_guard_ack { from; seq; _ } -> Cohort_read.handle_guard_ack t ~from ~seq
  | Message.Takeover_query { epoch; _ } -> Cohort_election.handle_takeover_query t ~src ~epoch
  | Message.Takeover_info { from; cmt; _ } | Message.Catchup_request { from; cmt; _ } ->
    if t.role = Leader then Cohort_replication.leader_run_catchup t ~follower:from ~f_cmt:cmt
  | Message.Catchup_data { epoch; cells; upto; final; _ } ->
    Cohort_replication.follower_handle_catchup_data t ~src ~epoch ~cells ~upto ~final
  | Message.Catchup_done { from; upto; _ } ->
    Cohort_replication.leader_catchup_done t ~follower:from ~upto
  | Message.Snapshot_chunk { epoch; seq; cells; upto; final; _ } ->
    Cohort_membership.handle_snapshot_chunk t ~src ~epoch ~seq ~cells ~upto ~final
  | Message.Snapshot_ack { from; seq; _ } -> Cohort_membership.handle_snapshot_ack t ~from ~seq
  | Message.Request _ | Message.Reply _ -> ()
