(* Replication: the leader's write/commit cycle and propose pipeline
   (Figure 4), the follower path, and catch-up (§6.1 and Figure 6 lines
   3-7). The one recursive group is the real cycle: a commit can open the
   cohort or apply a metadata record, either drains the queued writes, and
   each write's log force ends in [try_commit]. *)

open Cohort_state

(* Test-only fault plant: when set, followers ack (and advance lst over)
   every LSN they appended, including writes sitting beyond a loss-induced
   hole — the exact bug the hole-aware ack fixed. The shrinker test flips it
   on to manufacture reproducible lost-acked-write failures and verify a
   long chaos schedule shrinks to the few injections that matter. Never set
   outside tests. *)
let chaos_ack_past_holes = ref false

(* Trace id for a Propose batch: the newest write in the batch that carries an
   originating (client, request id). Tagging the batch's transit span with it
   lets the causal analyzer charge the propose hop to that request; writes
   without an origin (metadata records, rebuilt tails) leave the hop
   untagged. *)
let propose_trace_id t writes =
  if tracing t then
    match
      List.fold_left
        (fun acc (_, _, _, origin) -> match origin with Some _ -> origin | None -> acc)
        None writes
    with
    | Some (client, request_id) -> Sim.Trace.request_trace_id ~client ~request_id
    | None -> -1
  else -1

(* Sample one network hop into the write-phase transit histogram: messages
   carry their send instant, so arrival minus [sent_at] is the measured
   one-way wire time (propagation + serialization + queueing in the model). *)
let record_transit t ~sent_at =
  Sim.Metrics.Histogram.record_span t.phases.transit
    (Sim.Sim_time.diff (Sim.Engine.now t.ctx.engine) sent_at)

(* The still-uncommitted queue as Propose writes, for re-proposal
   (deduplicated by LSN at the follower). *)
let queued_writes t =
  List.map
    (fun (e : Commit_queue.entry) -> (e.Commit_queue.lsn, e.op, e.timestamp, e.origin))
    (Commit_queue.to_list t.queue)

let send_commit_msgs t =
  (* Sent even when nothing has committed yet: commit messages double as
     leader heartbeats, which followers use to notice they are stranded
     behind a lossy or partitioned link. *)
  List.iter
    (fun f ->
      t.ctx.send ~dst:f
        (Message.Commit { range = t.ctx.range; epoch = t.epoch; upto = t.cmt }))
    t.active_followers;
  (* Re-propose still-uncommitted entries: under loss a propose (or its ack)
     may have vanished, and re-proposal is deduplicated by LSN at the
     follower. The queue is empty or tiny at each tick in steady state. *)
  (match queued_writes t with
  | [] -> ()
  | writes ->
    let msg =
      Message.Propose { range = t.ctx.range; epoch = t.epoch; writes; piggyback_cmt = None }
    in
    let trace_id = propose_trace_id t writes in
    List.iter (fun f -> t.ctx.send ~trace_id ~dst:f msg) t.active_followers);
  if Lsn.(t.cmt > Lsn.zero) then
    (* The leader saves its last committed LSN with a non-forced log write,
       for its own recovery (§5). *)
    Wal.append t.ctx.wal (Log_record.commit_upto ~cohort:t.ctx.range t.cmt)

let arm_commit_timer t =
  if not t.commit_timer_armed then begin
    t.commit_timer_armed <- true;
    let rec tick () =
      if t.role = Leader then begin
        send_commit_msgs t;
        after t t.ctx.config.Config.commit_period tick
      end
      else t.commit_timer_armed <- false
    in
    after t t.ctx.config.Config.commit_period tick
  end

(* ------------------------------------------------------------------ *)
(* Propose pipeline.                                                    *)

let propose_now t writes =
  let piggyback_cmt =
    if t.ctx.config.Config.piggyback_commits && Lsn.(t.cmt > Lsn.zero) then Some t.cmt
    else None
  in
  let msg = Message.Propose { range = t.ctx.range; epoch = t.epoch; writes; piggyback_cmt } in
  let trace_id = propose_trace_id t writes in
  List.iter (fun f -> t.ctx.send ~trace_id ~dst:f msg) t.active_followers

let pump_proposals t =
  if
    Queue.length t.inflight_props < t.ctx.config.Config.pipeline_depth
    && t.unproposed <> []
  then begin
    let batch = List.rev t.unproposed in
    t.unproposed <- [];
    let highest =
      List.fold_left (fun acc (lsn, _, _, _) -> Lsn.max acc lsn) Lsn.zero batch
    in
    Queue.push highest t.inflight_props;
    propose_now t batch
  end

(* Replication pipelining ("Paxos in the Cloud"): with a finite window, at
   most [pipeline_depth] Propose batches may be awaiting commit; writes that
   arrive while the window is full accumulate and ship as one batched
   Propose when a slot frees. Depth 0 keeps the historical behavior — every
   write proposed the moment it is appended, unbounded. Held-back writes are
   already in the commit queue and the WAL, so the periodic re-propose tick
   still guarantees delivery if acks stall. *)
let propose t writes =
  if t.ctx.config.Config.pipeline_depth <= 0 then propose_now t writes
  else begin
    t.unproposed <- List.rev_append writes t.unproposed;
    pump_proposals t
  end

(* Retire committed Propose batches and refill the window; called whenever
   cmt advances on the leader. *)
let retire_proposals t =
  if t.ctx.config.Config.pipeline_depth > 0 then begin
    while
      (not (Queue.is_empty t.inflight_props)) && Lsn.(Queue.peek t.inflight_props <= t.cmt)
    do
      ignore (Queue.pop t.inflight_props)
    done;
    pump_proposals t
  end

(* ------------------------------------------------------------------ *)
(* Write/commit cycle (Figure 4): the leader appends and forces its log
   record, and in parallel appends the write to the commit queue and
   proposes it to the followers; it commits after its own force plus one
   ack.                                                                 *)

let next_lsn t = Lsn.make ~epoch:t.epoch ~seq:(t.lst.Lsn.seq + 1)

(* Append [ops] at the next LSNs to the commit queue and the log. A client
   write's [origin] rides on the last record only: the records commit
   together, so the last one settling settles the request. *)
let append_records t ~ts ?origin ops =
  let numbered =
    List.map
      (fun op ->
        let lsn = next_lsn t in
        t.lst <- lsn;
        (lsn, op))
      ops
  in
  let last = t.lst in
  let writes =
    List.map
      (fun (lsn, op) -> (lsn, op, ts, if Lsn.equal lsn last then origin else None))
      numbered
  in
  List.iter
    (fun (lsn, op, timestamp, origin) ->
      Commit_queue.add t.queue ~lsn ~op ~timestamp ?origin ();
      Wal.append t.ctx.wal (Log_record.write ~cohort:t.ctx.range ~lsn ~timestamp ?origin op))
    writes;
  writes

(* A client write just logged up to [lst] enters the leader-tracked table:
   its queue phase ends and its force and replication phases start. *)
let track_write t ~client ~request_id ~arrived =
  let started = Sim.Engine.now t.ctx.engine in
  Sim.Metrics.Histogram.record_span t.phases.queue (Sim.Sim_time.diff started arrived);
  let trace_id = Sim.Trace.request_trace_id ~client ~request_id in
  let lsn = if tracing t then Lsn.to_string t.lst else "" in
  let force_span = span_start t ~trace_id ~lsn ~tag:"phase.force" "" in
  let repl_span = span_start t ~trace_id ~lsn ~tag:"phase.replication" "" in
  Hashtbl.replace t.inflight_started t.lst { started; trace_id; force_span; repl_span }

(* The force phase of a leader-tracked write ends when its record is
   locally durable. *)
let force_phase_done t last =
  match Hashtbl.find_opt t.inflight_started last with
  | Some inf ->
    Sim.Metrics.Histogram.record_span t.phases.force
      (Sim.Sim_time.diff (Sim.Engine.now t.ctx.engine) inf.started);
    let lsn = if tracing t then Lsn.to_string last else "" in
    span_end t ~span:inf.force_span ~trace_id:inf.trace_id ~lsn ~tag:"phase.force"
      "locally durable"
  | None -> ()

let rec try_commit t =
  let committable =
    Commit_queue.pop_committable t.queue ~acks_needed:(Config.majority t.ctx.config - 1)
  in
  List.iter
    (fun (e : Commit_queue.entry) ->
      (* Replication phase ends when the entry becomes commit-eligible; only
         the last LSN of each leader-tracked request is in the table, so
         takeover-rebuilt entries and batch prefixes record nothing. *)
      let popped_at = Sim.Engine.now t.ctx.engine in
      let tracked =
        match Hashtbl.find_opt t.inflight_started e.Commit_queue.lsn with
        | Some inf ->
          Hashtbl.remove t.inflight_started e.lsn;
          Sim.Metrics.Histogram.record_span t.phases.replication
            (Sim.Sim_time.diff popped_at inf.started);
          let lsn = if tracing t then Lsn.to_string e.lsn else "" in
          span_end t ~span:inf.repl_span ~trace_id:inf.trace_id ~lsn ~tag:"phase.replication"
            "commit eligible";
          let apply_span = span_start t ~trace_id:inf.trace_id ~lsn ~tag:"phase.apply" "" in
          Some (inf.trace_id, apply_span, lsn)
        | None -> None
      in
      Store.apply t.ctx.store ~lsn:e.Commit_queue.lsn ~timestamp:e.timestamp e.op;
      t.cmt <- Lsn.max t.cmt e.lsn;
      if Log_record.is_meta e.op then on_meta t e.op;
      (* Answer the originating (possibly still retrying) client — of this
         term's write or of one rebuilt from the log during takeover — and
         remember the outcome. *)
      (match e.origin with
      | Some (client, request_id) ->
        reply_write t ~client ~request_id (reply_for_record e.op ~lsn:e.lsn)
      | None -> ());
      Cohort_ops.txn_applied t e.op;
      match tracked with
      | Some (trace_id, apply_span, lsn) ->
        span_end t ~span:apply_span ~trace_id ~lsn ~tag:"phase.apply" "applied and replied";
        Sim.Metrics.Histogram.record_span t.phases.apply
          (Sim.Sim_time.diff (Sim.Engine.now t.ctx.engine) popped_at)
      | None -> ())
    committable;
  if committable <> [] then begin
    retire_proposals t;
    Cohort_read.flush_parked_reads t
  end;
  if t.takeover_commit_wait && t.role = Leader && Lsn.(t.cmt >= t.takeover_open_at) then begin
    t.takeover_commit_wait <- false;
    trace t "takeover_commit_done" (Printf.sprintf "cmt=%s" (Lsn.to_string t.cmt));
    open_cohort t
  end

(* A committed metadata record (membership change or range split) takes
   effect: node-level side effects first (routing table, child cohorts, layout
   publication), then the cohort-local transitions. Runs on the leader inside
   [try_commit] and on followers inside [apply_commits] — always in LSN order
   relative to data records, which is what makes the swap atomic. *)
and on_meta t op =
  let leader = t.role = Leader in
  t.ctx.apply_meta ~op ~leader;
  match op with
  | Log_record.Cohort_change { add; remove } ->
    (match add with
    | Some n when n = t.ctx.node_id ->
      (* Promoted: this replica is now a full cohort member. *)
      t.learner <- false;
      trace t "learner_promoted" (Printf.sprintf "epoch=%d" t.epoch)
    | _ -> ());
    if leader then begin
      (match remove with
      | Some n ->
        t.active_followers <- List.filter (fun f -> f <> n) t.active_followers;
        t.pending_final <- List.filter (fun f -> f <> n) t.pending_final
      | None -> ());
      (match add with
      | Some n when n <> t.ctx.node_id ->
        if not (List.mem n t.active_followers) then
          t.active_followers <- n :: t.active_followers
      | _ -> ());
      trace t "migration_done"
        (Printf.sprintf "add=%s remove=%s"
           (match add with Some n -> Printf.sprintf "n%d" n | None -> "-")
           (match remove with Some n -> Printf.sprintf "n%d" n | None -> "-"));
      t.migration <- None;
      drain_waiting t
    end
  | Log_record.Split { at; new_range } ->
    if leader then begin
      trace t "split_done" (Printf.sprintf "at=%s child=r%d" at new_range);
      t.splitting <- false;
      drain_waiting t
    end
  | _ -> ()

and open_cohort t =
  if not t.open_for_writes then begin
    t.open_for_writes <- true;
    trace t "cohort_open" (Printf.sprintf "epoch=%d lst=%s" t.epoch (Lsn.to_string t.lst));
    Cohort_ops.rebuild_txn_locks t;
    arm_commit_timer t;
    Cohort_ops.arm_txn_sweep t;
    drain_waiting t
  end

and drain_waiting t =
  if t.role = Leader && t.open_for_writes && t.pending_final = [] && not t.splitting then begin
    let waiting = List.rev t.waiting in
    t.waiting <- [];
    (* Straight to [enqueue_write]: these already passed the duplicate gate
       when they first arrived and hold an [In_flight] marker. *)
    List.iter (fun w -> enqueue_write t ~client:w.client ~request_id:w.request_id w.op) waiting
  end

and enqueue_write t ~client ~request_id op =
  if (not t.open_for_writes) || t.pending_final <> [] || t.splitting then
    (* Writes block during takeover, during the momentary window at the end
       of a follower catch-up (§6.1), and while a range split is being
       logged; they drain when the cohort (re)opens. *)
    t.waiting <- { client; request_id; op } :: t.waiting
  else begin
    let arrived = Sim.Engine.now t.ctx.engine in
    let service = Sim.Sim_time.of_us_f t.ctx.config.Config.write_service_us in
    let trace_id = Sim.Trace.request_trace_id ~client ~request_id in
    let queue_span =
      if tracing t then
        span_start t ~trace_id ~tag:"phase.queue" (Printf.sprintf "c%d#%d" client request_id)
      else 0
    in
    Sim.Resource.submit t.ctx.cpu ~service
      (guard t (fun () ->
           span_end t ~span:queue_span ~trace_id ~tag:"phase.queue" "cpu granted";
           if t.role = Leader && t.open_for_writes && t.pending_final = [] && not t.splitting
           then perform_write t ~arrived ~client ~request_id op
           else if t.role = Leader then
             t.waiting <- { client; request_id; op } :: t.waiting
           else refuse_write t ~client ~request_id (Message.Not_leader { hint = t.leader })))
  end

and perform_write t ~arrived ~client ~request_id op =
  if not (t.ctx.routes_here (Message.key_of_op op)) then
    (* The layout moved while this write sat in the queue (a split committed
       between arrival and service): it belongs to another cohort now, and
       assigning it an LSN here would misfile it. The client refreshes its
       routing table and retries at the owner. *)
    refuse_write t ~client ~request_id (Message.Wrong_range { hint = None })
  else if Cohort_ops.blocked_by_intent t op then refuse_write t ~client ~request_id Message.Unavailable
  else begin
    let ts = now_us t in
    match Cohort_ops.translate t ~ts op with
    | Cohort_ops.Answer reply -> reply_write t ~client ~request_id reply
    | Cohort_ops.Append ops ->
      let writes = append_records t ~ts ~origin:(client, request_id) ops in
      track_write t ~client ~request_id ~arrived;
      force_and_propose t writes
  end

(* Force the log up to [lst] and, in parallel, propose [writes] (Figure 4):
   the leader commits once its own force has landed and a follower acks. *)
and force_and_propose t writes =
  let last = t.lst in
  Wal.force t.ctx.wal
    (guard t (fun () ->
         force_phase_done t last;
         Commit_queue.mark_forced_upto t.queue last;
         try_commit t));
  propose t writes

let handle_write t ~client ~request_id op =
  if t.role <> Leader then
    t.ctx.reply ~client ~request_id (Message.Not_leader { hint = t.leader })
  else begin
    match dedup_find t ~client ~request_id with
    | Some (Done reply) ->
      (* A retry of a write that already settled (its reply was lost, or the
         retry raced the reply): resend the original outcome verbatim rather
         than applying the write twice. *)
      t.ctx.reply ~client ~request_id reply
    | Some In_flight ->
      (* The original is still working through the pipeline; its own reply —
         or the client's next retry once this one settles — answers. *)
      ()
    | None ->
      dedup_set t ~client ~request_id In_flight;
      enqueue_write t ~client ~request_id op
  end

(* Leader-only: append a metadata record (membership change or range split)
   and replicate it like any write, so every replica applies it at the same
   point in the LSN order (§10). It commits by the usual majority rule — the
   OLD configuration's majority: acks are filtered by membership, so a
   not-yet-promoted learner cannot help commit the very record that promotes
   it. *)
let enqueue_meta t op =
  let ts = now_us t in
  let lsn = next_lsn t in
  trace t "meta_append"
    (Format.asprintf "%s %a" (Lsn.to_string lsn) Log_record.pp
       (Log_record.write ~cohort:t.ctx.range ~lsn ~timestamp:ts op));
  force_and_propose t (append_records t ~ts [ op ])

(* Only members' acks count toward the majority: a learner's ack must not
   help commit a write the old configuration has not accepted — the learner
   could vanish with the only durable copy. *)
let handle_ack t ~sent_at ~from ~upto =
  if t.role = Leader && List.mem from (t.ctx.members ()) then begin
    record_transit t ~sent_at;
    Commit_queue.add_ack t.queue ~from ~upto;
    try_commit t
  end

(* ------------------------------------------------------------------ *)
(* Follower side of Figure 4.                                           *)

(* Apply the committed prefix. The network can lose proposes, so only the
   seq-contiguous prefix of the queue may be applied; a hole means a propose
   vanished in flight and everything beyond it must wait for a re-proposal
   or an explicit catch-up. Our own durable log records inside the newly
   committed window that did not commit (discarded by a leader change and
   never re-proposed) are logically truncated so local recovery skips them
   (§6.1.1). *)
let apply_commits t ~upto =
  if Lsn.(upto > t.cmt) then begin
    let old_cmt = t.cmt in
    let entries = Commit_queue.pop_contiguous t.queue ~from:t.cmt ~upto in
    List.iter
      (fun (e : Commit_queue.entry) ->
        Store.apply t.ctx.store ~lsn:e.Commit_queue.lsn ~timestamp:e.timestamp e.op;
        t.cmt <- Lsn.max t.cmt e.lsn;
        cache_outcome t e.origin (reply_for_record e.op ~lsn:e.lsn);
        if Log_record.is_meta e.op then on_meta t e.op)
      entries;
    (* The commit point can pass appended-but-not-yet-locally-forced entries
       (they are globally committed); lst must never trail cmt. *)
    t.lst <- Lsn.max t.lst t.cmt;
    if entries <> [] then begin
      if tracing t then
        Sim.Trace.event t.ctx.trace ~node:t.ctx.node_id ~cohort:t.ctx.range
          ~lsn:(Lsn.to_string t.cmt) ~tag:"follower.apply"
          (Printf.sprintf "r%d n%d applied %d upto %s" t.ctx.range t.ctx.node_id
             (List.length entries) (Lsn.to_string t.cmt));
      let applied = List.map (fun (e : Commit_queue.entry) -> e.Commit_queue.lsn) entries in
      let own = Store.durable_write_lsns_in t.ctx.store ~above:old_cmt ~upto:t.cmt in
      let stale = List.filter (fun l -> not (List.exists (Lsn.equal l) applied)) own in
      truncate_logically t stale;
      Wal.append t.ctx.wal (Log_record.commit_upto ~cohort:t.ctx.range t.cmt)
    end;
    Cohort_read.flush_parked_reads t;
    if Lsn.(t.cmt < upto) then begin
      trace t "commit_gap"
        (Printf.sprintf "cmt=%s committed=%s" (Lsn.to_string t.cmt) (Lsn.to_string upto));
      Cohort_election.start_resync t
    end
  end

(* Cumulative acks coalesce ([Config.ack_coalesce] > 0): instead of one Ack
   per Propose, note the newest contiguous-forced prefix and answer once per
   coalescing window. Acks are cumulative, so sending only the latest value
   loses nothing; the window only defers when the leader learns it. *)
let send_ack_now t ~dst ~upto ~trace_id =
  t.ctx.send ~trace_id ~dst (Message.Ack { range = t.ctx.range; from = t.ctx.node_id; upto })

let flush_ack t =
  t.ack_timer_armed <- false;
  match t.ack_pending with
  | Some (dst, upto, trace_id) ->
    t.ack_pending <- None;
    if t.role = Follower then send_ack_now t ~dst ~upto ~trace_id
  | None -> ()

let send_or_coalesce_ack t ~dst ~upto ~trace_id =
  let window = t.ctx.config.Config.ack_coalesce in
  if Sim.Sim_time.span_compare window Sim.Sim_time.span_zero <= 0 then
    send_ack_now t ~dst ~upto ~trace_id
  else begin
    (* Latest leader wins the destination; upto is monotone under Lsn.max,
       and the trace id travels with whichever upto wins (the coalesced ack
       is causally the newest covered write's ack; earlier requests it also
       covers see the coalescing delay as ack wait). *)
    let upto, trace_id =
      match t.ack_pending with
      | Some (_, prev, prev_tid) ->
        if Lsn.(upto >= prev) then (upto, trace_id) else (prev, prev_tid)
      | None -> (upto, trace_id)
    in
    t.ack_pending <- Some (dst, upto, trace_id);
    if not t.ack_timer_armed then begin
      t.ack_timer_armed <- true;
      after t window (fun () -> flush_ack t)
    end
  end

(* Leader traffic is accepted from the current epoch on, by a live replica
   that is not itself leading. *)
let from_leader t ~epoch = epoch >= t.epoch && t.role <> Offline && t.role <> Leader

let handle_propose t ~src ~sent_at ~epoch ~writes ~piggyback_cmt =
  if from_leader t ~epoch then begin
    Cohort_election.accept_leader t ~src ~epoch;
    record_transit t ~sent_at;
    (* Writes at or below the commit point are known-committed duplicates;
       anything above it goes through the normal protocol — append, force,
       ack (Figure 4). Retransmissions (takeover re-proposals, Figure 6 line
       9, and the leader's periodic re-proposes under loss) are deduplicated
       by LSN so the log is not polluted with copies. *)
    let appended = ref [] in
    let newest_origin = ref None in
    List.iter
      (fun (lsn, op, timestamp, origin) ->
        if Lsn.(lsn > t.cmt) then begin
          if not (Commit_queue.mem t.queue lsn) then begin
            Commit_queue.add t.queue ~lsn ~op ~timestamp ?origin ();
            Wal.append t.ctx.wal (Log_record.write ~cohort:t.ctx.range ~lsn ~timestamp ?origin op);
            appended := lsn :: !appended;
            if origin <> None then newest_origin := origin
          end
        end)
      writes;
    let force_tid =
      match !newest_origin with
      | Some (client, request_id) when tracing t ->
        Sim.Trace.request_trace_id ~client ~request_id
      | _ -> -1
    in
    let force_span =
      if !appended <> [] then span_start t ~trace_id:force_tid ~tag:"follower.force" ""
      else 0
    in
    let ack () =
      span_end t ~span:force_span ~trace_id:force_tid ~tag:"follower.force" "locally durable";
      (* Mark exactly what this propose appended as forced (a concurrent
         retransmission may have back-filled an older LSN whose force is
         still in flight), then ack only the seq-contiguous forced prefix:
         with loss, later writes can sit beyond a hole, and acking past the
         hole would let the leader count durability we do not have. *)
      List.iter (fun lsn -> Commit_queue.mark_forced t.queue lsn) !appended;
      let upto =
        if !chaos_ack_past_holes then
          (* Planted bug (see the flag's comment): claim everything appended,
             holes and all. *)
          List.fold_left Lsn.max t.cmt !appended
        else
          match Commit_queue.contiguous_forced_upto t.queue ~from:t.cmt with
          | Some lsn -> lsn
          | None -> t.cmt
      in
      (* lst advances only along this same contiguous forced prefix: it is
         what we advertise in elections (Figure 7) and takeover replies, so
         it must never claim sequence numbers beyond a hole — a candidate
         missing a committed write could otherwise out-bid the replica that
         actually has it, and the write would be logically truncated away. *)
      t.lst <- Lsn.max t.lst upto;
      if Lsn.(upto > Lsn.zero) then begin
        (* Tag the ack with the newest covered write's request, read from the
           queue entry at the acked point — cumulative acks answer the whole
           forced prefix, and that entry's commit is what the ack unblocks. *)
        let trace_id =
          if tracing t then
            match Commit_queue.origin_at t.queue upto with
            | Some (client, request_id) -> Sim.Trace.request_trace_id ~client ~request_id
            | None -> -1
          else -1
        in
        send_or_coalesce_ack t ~dst:src ~upto ~trace_id
      end
    in
    if !appended <> [] then Wal.force t.ctx.wal (guard t ack) else ack ();
    match piggyback_cmt with
    | Some upto -> apply_commits t ~upto
    | None -> ()
  end

let handle_commit t ~src ~epoch ~upto =
  if from_leader t ~epoch then begin
    Cohort_election.accept_leader t ~src ~epoch;
    apply_commits t ~upto
  end

(* Follower side of a read-index round: confirm the asking leader's epoch is
   still the newest we know. The epoch is re-checked when the CPU grants the
   ack — if a takeover query bumped our epoch while the guard sat in the
   queue, acking would hand the deposed leader a quorum it no longer has. *)
let handle_guard t ~src ~epoch ~seq =
  if from_leader t ~epoch then begin
    Cohort_election.accept_leader t ~src ~epoch;
    let service = Sim.Sim_time.of_us_f t.ctx.config.Config.read_guard_service_us in
    Sim.Resource.submit t.ctx.cpu ~service
      (guard t (fun () ->
           if t.role = Follower && epoch >= t.epoch then
             t.ctx.send ~dst:src
               (Message.Read_guard_ack { range = t.ctx.range; from = t.ctx.node_id; seq })))
  end

(* ------------------------------------------------------------------ *)
(* Catch-up: leader side (§6.1 and Figure 6 lines 3-7).                 *)

(* Catch-up is served to cohort members and to the joiner of an in-flight
   migration. A replica that was migrated away could otherwise keep asking
   and, via [pending_final], block writes forever; it learns its fate from
   the published layout instead. *)
let catchup_eligible t ~follower =
  List.mem follower (t.ctx.members ())
  || (match t.migration with Some m -> m.joiner = follower | None -> false)

(* Bring [follower], whose last committed LSN is [f_cmt], up to the leader's
   last committed LSN. Writes are blocked for the duration of the (short)
   final round so the follower is fully caught up when it completes. *)
let leader_run_catchup t ~follower ~f_cmt =
  if t.role = Leader && catchup_eligible t ~follower then begin
    t.active_followers <- List.filter (fun f -> f <> follower) t.active_followers;
    if not (List.mem follower t.pending_final) then
      t.pending_final <- follower :: t.pending_final;
    let cells =
      if Lsn.(f_cmt < t.cmt) then
        Store.committed_cells_in t.ctx.store ~above:f_cmt ~upto:t.cmt
      else []
    in
    trace t "catchup_serve"
      (Printf.sprintf "to n%d cells=%d upto=%s" follower (List.length cells)
         (Lsn.to_string t.cmt));
    t.ctx.send ~dst:follower
      (Message.Catchup_data
         { range = t.ctx.range; epoch = t.epoch; cells; upto = t.cmt; final = true });
    (* If the follower dies mid-round its Catchup_done never arrives; unblock
       after a grace period so the cohort does not stall. *)
    after t (Sim.Sim_time.ms 2000) (fun () ->
        if List.mem follower t.pending_final then begin
          t.pending_final <- List.filter (fun f -> f <> follower) t.pending_final;
          drain_waiting t
        end)
  end

(* A follower finished catching up: activate it and close any in-flight gap
   by re-proposing the leader's still-pending writes (idempotent at the
   follower). For a takeover this re-proposal is exactly Figure 6 line 9 —
   the unresolved writes in (l.cmt, l.lst]. *)
let leader_catchup_done t ~follower ~upto =
  if t.role = Leader && catchup_eligible t ~follower then begin
    t.pending_final <- List.filter (fun f -> f <> follower) t.pending_final;
    if Lsn.(upto < t.cmt) then
      (* The follower fell behind again (it crashed and came back mid-round):
         run another round. *)
      leader_run_catchup t ~follower ~f_cmt:upto
    else begin
      if not (List.mem follower t.active_followers) then
        t.active_followers <- follower :: t.active_followers;
      (* A migration's joiner is caught up: commit the membership change that
         swaps it in (and the retiring replica out). The change is replicated
         under the old configuration's majority. *)
      (match t.migration with
      | Some m when m.joiner = follower && m.phase = `Catchup ->
        m.phase <- `Change;
        trace t "migration_change" (Printf.sprintf "joiner=n%d caught up" m.joiner);
        enqueue_meta t (Log_record.Cohort_change { add = Some m.joiner; remove = m.remove })
      | _ -> ());
      (match queued_writes t with
      | [] -> ()
      | writes ->
        t.ctx.send ~dst:follower
          (Message.Propose { range = t.ctx.range; epoch = t.epoch; writes; piggyback_cmt = None }));
      (* Attributed to the follower's track: "this follower is caught up and
         active" is a statement about the follower, and the timeline analyzer
         matches it by (node = restarted replica, cohort). *)
      Sim.Trace.event t.ctx.trace ~node:follower ~cohort:t.ctx.range ~lsn:(Lsn.to_string upto)
        ~tag:"follower_active"
        (Printf.sprintf "r%d n%d upto=%s" t.ctx.range follower (Lsn.to_string upto));
      if t.takeover_pending then begin
        t.takeover_pending <- false;
        trace t "takeover_quorum" (Printf.sprintf "first=n%d" follower);
        if Lsn.(t.cmt >= t.takeover_open_at) then open_cohort t
        else begin
          (* Figure 6: the unresolved writes in (l.cmt, l.lst] were acked by
             the old leader and must be committed — and applied, so strong
             reads cannot travel back in time — before the cohort reopens.
             The commit timer re-proposes them under loss until the tail
             lands; [try_commit] opens the cohort when cmt reaches the lst
             we took over with. *)
          t.takeover_commit_wait <- true;
          trace t "takeover_commit_wait"
            (Printf.sprintf "cmt=%s open_at=%s" (Lsn.to_string t.cmt)
               (Lsn.to_string t.takeover_open_at));
          arm_commit_timer t
        end
      end;
      drain_waiting t
    end
  end

(* ------------------------------------------------------------------ *)
(* Catch-up: follower side (§6.1).                                      *)

(* Fold an LSN-sorted shipped-cell list into ONE install op per LSN. The
   WAL's LSN index treats a second record at an existing LSN as an
   idempotent re-force and keeps the first record's op, so appending two
   [Install_cell] records at one LSN (e.g. a Txn_resolve's data cell plus
   its intent tombstone) would silently drop all but the first cell from
   crash-recovery replay. Each cell goes in verbatim — reconstructing a
   Put/Delete would drop its transactional commit-timestamp classification
   ([Row.cell.txn_ts]) and a caught-up replica's snapshot reads could then
   expose half a transaction. *)
let install_ops_by_lsn (cells : (Row.coord * Row.cell) list) :
    (Lsn.t * int * Log_record.op) list =
  let groups =
    List.fold_left
      (fun acc ((_, (cell : Row.cell)) as item) ->
        match acc with
        | (lsn, items) :: rest when Lsn.equal lsn cell.lsn -> (lsn, item :: items) :: rest
        | _ -> (cell.Row.lsn, [ item ]) :: acc)
      [] cells
  in
  List.rev_map
    (fun (lsn, rev_items) ->
      let items = List.rev rev_items in
      let timestamp = match items with (_, (c : Row.cell)) :: _ -> c.timestamp | [] -> 0 in
      let install (coord, cell) = Log_record.Install_cell { coord; cell } in
      let op =
        match items with
        | [ item ] -> install item
        | _ -> Log_record.Batch (List.map install items)
      in
      (lsn, timestamp, op))
    groups

(* Install shipped cells (catch-up or snapshot chunk): WAL-append every LSN
   not already among this replica's durable LSNs [own], then apply. The
   cells become part of the durable prefix, so local recovery and later
   catch-up serving work unchanged; re-installing is idempotent. *)
let install_cells t ~own cells =
  List.iter
    (fun (lsn, timestamp, op) ->
      if not (List.exists (Lsn.equal lsn) own) then
        Wal.append t.ctx.wal (Log_record.write ~cohort:t.ctx.range ~lsn ~timestamp op);
      Store.apply t.ctx.store ~lsn ~timestamp op)
    (install_ops_by_lsn cells)

let follower_handle_catchup_data t ~src ~epoch ~cells ~upto ~final =
  if from_leader t ~epoch then begin
    Cohort_election.accept_leader t ~src ~epoch;
    let old_cmt = t.cmt in
    let catchup_span =
      span_start t ~lsn:(Lsn.to_string upto) ~tag:"recovery.catchup"
        (Printf.sprintf "from n%d: %d cells, %s -> %s%s" src (List.length cells)
           (Lsn.to_string old_cmt) (Lsn.to_string upto)
           (if final then " (final)" else ""))
    in
    (* Logical truncation (§6.1.1): LSNs in our log after f.cmt that the
       leader does not vouch for were discarded by a leader change and must
       never be re-applied by local recovery. The leader vouches for the
       cells it sent and for its still-pending writes above [upto] (which it
       re-proposes right after this round). *)
    let vouched =
      List.fold_left (fun acc ((_, (cell : Row.cell)) : Row.coord * Row.cell) ->
          cell.lsn :: acc)
        [] cells
    in
    (* Scan our raw durable extent, not lst: with loss the log can hold
       records beyond the contiguous prefix lst tracks, and any of them
       inside the vouched window that the leader does not vouch for must be
       truncated too. *)
    let own =
      Store.durable_write_lsns_in t.ctx.store ~above:old_cmt ~upto:(Lsn.max t.lst upto)
    in
    let stale =
      List.filter
        (fun lsn -> Lsn.(lsn <= upto) && not (List.exists (Lsn.equal lsn) vouched))
        own
    in
    truncate_logically t stale;
    (* Entries at or below the catch-up point are superseded by the cells;
       anything above it that is still valid will be re-proposed (the leader
       re-proposes its pending queue right after this round and on every
       commit tick), so the queue is cleared outright — stale entries from a
       deposed leader must not linger and apply later. In-flight duplicate
       markers for dropped entries are released so a client retry is not
       silently swallowed if this node is later elected. *)
    ignore (Commit_queue.pop_upto t.queue upto);
    clear_dropped t (Commit_queue.drop_above t.queue upto);
    install_cells t ~own cells;
    t.cmt <- Lsn.max t.cmt upto;
    (* Everything above the catch-up point was dropped from the queue, so our
       vouched contiguous prefix ends exactly at cmt; that is the honest lst
       until the leader's re-proposals rebuild the chain. Keeping a larger
       stale value would let this replica out-bid others in an election with
       sequence numbers it no longer vouches for. *)
    t.lst <- t.cmt;
    Wal.append t.ctx.wal (Log_record.commit_upto ~cohort:t.ctx.range t.cmt);
    (* Writes we had forced but never applied are now committed (or
       truncated); re-learn their outcomes from our own log so duplicate
       retries stay suppressed if this node is later elected leader. *)
    recache_outcomes_from_log t ~above:old_cmt ~upto:t.cmt;
    Cohort_read.flush_parked_reads t;
    let finish =
      guard t (fun () ->
          span_end t ~span:catchup_span ~lsn:(Lsn.to_string t.cmt) ~tag:"recovery.catchup"
            "caught-up batch durable";
          t.catching_up <- false;
          if final then
            t.ctx.send ~dst:src
              (Message.Catchup_done { range = t.ctx.range; from = t.ctx.node_id; upto = t.cmt }))
    in
    Wal.force t.ctx.wal finish
  end
