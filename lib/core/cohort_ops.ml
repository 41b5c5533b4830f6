(* What a client write appends to the leader's log. Plain writes get their
   versions and conditional checks (§3, §5.1) and multi-operation batches
   (§8.2); 2PC requests get the participant's conflict checks, decisions and
   resolves. Each translates into log records to append or a reply that
   settles the request without a record. Owns [t.txn], the participant's
   leader-term lock state. *)

open Cohort_state

type outcome = Append of Log_record.op list | Answer of Message.client_reply

(* Version assignment: the leader serialises writes, so a coordinate's
   current version is its committed version overlaid with still-pending
   writes in the commit queue (§3, §5.1). *)
let latest_version t coord =
  match Commit_queue.latest_version_for t.queue coord with
  | Some v -> v
  | None -> Store.current_version t.ctx.store coord

let next_version t (key, col) = latest_version t (key, col) + 1

(* A transaction's decision, if one is on record: appended this term (the
   in-memory table) or durably applied (the anchor's decision cell). *)
let existing_decision t ~anchor ~txn =
  match Hashtbl.find_opt t.txn.pending_decisions txn with
  | Some d -> Some d
  | None -> (
    match Store.get t.ctx.store (anchor, Row.decision_col txn) with
    | Some { Row.value = Some payload; _ } -> Row.decode_decision payload
    | _ -> None)

(* A plain write racing an unresolved 2PC intent on the same coordinate is
   refused rather than interleaved with the prepare window (the intent's
   final version and LSN are not yet fixed). The client backs off and
   retries once the intent resolves. *)
let blocked_by_intent t (op : Message.client_op) =
  let locked coord =
    Hashtbl.mem t.txn.locks coord || Store.intent_txn_at t.ctx.store coord <> None
  in
  match op with
  | Message.Put { key; col; _ }
  | Message.Delete { key; col }
  | Message.Conditional_put { key; col; _ }
  | Message.Conditional_delete { key; col; _ } ->
    locked (key, col)
  | Message.Multi_put { key; cols } -> List.exists (fun (col, _) -> locked (key, col)) cols
  | Message.Multi_conditional_put { key; cols } ->
    List.exists (fun (col, _, _) -> locked (key, col)) cols
  | Message.Txn_put { rows } -> List.exists (fun (key, col, _) -> locked (key, col)) rows
  | _ -> false

let put key col value version = Log_record.Put { key; col; value; version }

let plain_op t (op : Message.client_op) =
  match op with
  | Message.Put { key; col; value } -> Append [ put key col value (next_version t (key, col)) ]
  | Message.Delete { key; col } ->
    Append [ Log_record.Delete { key; col; version = next_version t (key, col) } ]
  | Message.Multi_put { cols = []; _ } | Message.Multi_conditional_put { cols = []; _ } ->
    (* An empty multi-column write has nothing to log: it succeeds at once. *)
    Answer (Message.Written { lsn = t.cmt })
  | Message.Multi_put { key; cols } ->
    Append (List.map (fun (col, value) -> put key col value (next_version t (key, col))) cols)
  | Message.Conditional_put { key; col; value; expected } ->
    (* Conditional put: executed only if the current version matches (§5.1). *)
    let current = latest_version t (key, col) in
    if current = expected then Append [ put key col value (current + 1) ]
    else Answer (Message.Version_mismatch { current })
  | Message.Conditional_delete { key; col; expected } ->
    let current = latest_version t (key, col) in
    if current = expected then Append [ Log_record.Delete { key; col; version = current + 1 } ]
    else Answer (Message.Version_mismatch { current })
  | Message.Multi_conditional_put { key; cols } -> (
    match List.find_opt (fun (col, _, expected) -> latest_version t (key, col) <> expected) cols with
    | Some (col, _, _) -> Answer (Message.Version_mismatch { current = latest_version t (key, col) })
    | None -> Append (List.map (fun (col, value, expected) -> put key col value (expected + 1)) cols))
  | Message.Txn_put { rows } ->
    (* Multi-operation transaction (§8.2): bound to one log record, so the
       batch is replicated, committed, and recovered all-or-nothing. *)
    if not (List.for_all (fun (key, _, _) -> t.ctx.routes_here key) rows) then
      Answer Message.Cross_range
    else
      Append
        [
          Log_record.Batch
            (List.map (fun (key, col, value) -> put key col value (next_version t (key, col))) rows);
        ]
  | _ -> invalid_arg "Cohort_ops.plain_op: not a plain write"

(* A 2PC participant's prepare conflicts on a coordinate another transaction
   holds an intent on, or that changed after the transaction's snapshot
   (first committer wins). *)
let prepare_conflicts t ~txn ~fence ~fence_ts (key, col, _) =
  let coord = (key, col) in
  (match Hashtbl.find_opt t.txn.locks coord with
  | Some owner -> not (String.equal owner txn)
  | None -> false)
  || (match Store.intent_txn_at t.ctx.store coord with
     | Some owner -> not (String.equal owner txn)
     | None -> false)
  (* Any pending queued write on the coordinate will install a version newer
     than our snapshot — conflict without waiting. *)
  || Option.is_some (Commit_queue.latest_version_for t.queue coord)
  ||
  match Store.head_info t.ctx.store coord with
  | Some (_, Some committed_ts) -> committed_ts > fence_ts
  | Some (head_lsn, None) -> Lsn.(head_lsn > fence)
  | None -> false

let participant_op t ~ts (op : Message.client_op) =
  match op with
  | Message.Txn_prepare_req { txn; anchor; fence; fence_ts; writes } ->
    (* 2PC phase one: first-committer-wins conflict checks, then the write
       intents replicate through this participant's Paxos log. Locks are
       taken at append so a racing prepare in the same term cannot pass the
       same checks before this one commits. *)
    if writes = [] || not (List.for_all (fun (key, _, _) -> t.ctx.routes_here key) writes) then
      Answer Message.Cross_range
    else if List.exists (prepare_conflicts t ~txn ~fence ~fence_ts) writes then
      Answer Message.Txn_conflict
    else begin
      List.iter (fun (key, col, _) -> Hashtbl.replace t.txn.locks (key, col) txn) writes;
      Append [ Log_record.Txn_prepare { txn; anchor; fence; writes } ]
    end
  | Message.Txn_decide_req { txn; anchor; commit } -> (
    match existing_decision t ~anchor ~txn with
    | Some (committed, decided_ts) ->
      (* First decision wins — a presumed-abort may already have beaten a
         late commit request here; answer with what is on record. *)
      Answer (Message.Txn_decided { committed; ts = decided_ts })
    | None ->
      Hashtbl.replace t.txn.pending_decisions txn (commit, ts);
      Append [ Log_record.Txn_decision { txn; anchor; commit; ts } ])
  | Message.Txn_status_req { txn; anchor } -> (
    match existing_decision t ~anchor ~txn with
    | Some (committed, decided_ts) -> Answer (Message.Txn_decided { committed; ts = decided_ts })
    | None ->
      (* Presumed abort: no decision on record means the coordinator client
         may have died before asking for one — log an abort so every
         in-doubt participant converges on it. *)
      Hashtbl.replace t.txn.pending_decisions txn (false, ts);
      Append [ Log_record.Txn_decision { txn; anchor; commit = false; ts } ])
  | Message.Txn_resolve_req { txn; key = _; commit; ts = decision_ts } -> (
    if Hashtbl.mem t.txn.resolving txn then
      (* A resolve record is already in flight this term; acknowledging is
         safe — resolution is guaranteed by that record or, should a leader
         change drop it, by the presumed-abort sweep. *)
      Answer (Message.Written { lsn = t.cmt })
    else
      match Store.intents_of t.ctx.store txn with
      | [] ->
        (* Already resolved (or the prepare never landed here): idempotent
           success. *)
        Answer (Message.Written { lsn = t.cmt })
      | intents ->
        (* Resolve every intent the transaction holds in this range, not
           just the addressed key: final cells are materialized here, at
           append time, with concrete versions — so replicas and recovery
           apply them like any other write. *)
        let writes =
          List.map (fun ((key, col), value) -> (key, col, value, next_version t (key, col))) intents
        in
        Hashtbl.replace t.txn.resolving txn ();
        List.iter (fun (key, col, _, _) -> Hashtbl.remove t.txn.locks (key, col)) writes;
        Append [ Log_record.Txn_resolve { txn; commit; ts = decision_ts; writes } ])
  | _ -> invalid_arg "Cohort_ops.participant_op: not a 2PC request"

(* [ts] is the leader's append instant: the records' timestamp and a new
   decision's commit timestamp. *)
let translate t ~ts (op : Message.client_op) =
  match op with
  | Message.Txn_prepare_req _ | Message.Txn_decide_req _ | Message.Txn_status_req _
  | Message.Txn_resolve_req _ ->
    participant_op t ~ts op
  | _ -> plain_op t op

(* ------------------------------------------------------------------ *)
(* Leader-term transaction state.                                       *)

let reset_txn_state t =
  Hashtbl.reset t.txn.locks;
  Hashtbl.reset t.txn.pending_decisions;
  Hashtbl.reset t.txn.resolving

(* Leader-side bookkeeping once a transaction record applies: a resolve
   leaving the queue ends the double-append guard, and a durable decision no
   longer needs its in-memory pending entry (the store's decision cell now
   answers [existing_decision]). *)
let txn_applied t (op : Log_record.op) =
  match op with
  | Log_record.Txn_resolve { txn; _ } -> Hashtbl.remove t.txn.resolving txn
  | Log_record.Txn_decision { txn; _ } -> Hashtbl.remove t.txn.pending_decisions txn
  | _ -> ()

(* A new leader term inherits the transaction state its log implies: applied
   intents lock their coordinates, and queued-but-unapplied prepare/resolve/
   decision records (replayed in LSN order) adjust on top. Without this a
   failed-over leader would grant conflicting prepares over live intents. *)
let rebuild_txn_locks t =
  reset_txn_state t;
  List.iter
    (fun (txn, _, coords) -> List.iter (fun c -> Hashtbl.replace t.txn.locks c txn) coords)
    (Store.live_intents t.ctx.store);
  List.iter
    (fun (e : Commit_queue.entry) ->
      match e.op with
      | Log_record.Txn_prepare { txn; writes; _ } ->
        List.iter (fun (key, col, _) -> Hashtbl.replace t.txn.locks (key, col) txn) writes
      | Log_record.Txn_resolve { txn; writes; _ } ->
        Hashtbl.replace t.txn.resolving txn ();
        List.iter (fun (key, col, _, _) -> Hashtbl.remove t.txn.locks (key, col)) writes
      | Log_record.Txn_decision { txn; commit; ts; _ } ->
        Hashtbl.replace t.txn.pending_decisions txn (commit, ts)
      | _ -> ())
    (Commit_queue.to_list t.queue)

(* Presumed-abort sweep (leader-only): intents unresolved past
   [txn_indoubt_after] escalate to the node, which asks the coordinator for
   the outcome (logging an abort there if none exists) and resolves them. *)
let arm_txn_sweep t =
  if not t.txn.sweep_armed then begin
    t.txn.sweep_armed <- true;
    let rec tick () =
      if t.role = Leader && t.open_for_writes then begin
        let older_than = Sim.Sim_time.to_us t.ctx.config.Config.txn_indoubt_after in
        List.iter
          (fun (txn, anchor, key) ->
            if not (Hashtbl.mem t.txn.resolving txn) then begin
              trace t "txn.indoubt" txn;
              t.ctx.resolve_in_doubt ~txn ~anchor ~key
            end)
          (Store.in_doubt t.ctx.store ~now:(now_us t) ~older_than);
        after t t.ctx.config.Config.txn_sweep_period tick
      end
      else t.txn.sweep_armed <- false
    in
    after t t.ctx.config.Config.txn_sweep_period tick
  end
