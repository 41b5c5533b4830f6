(* The read gate (§5): strong reads are served by the leader — locally under
   a live lease, behind a read-index quorum round when leases are off, never
   once the lease has lapsed. Timeline reads are served by any live replica;
   a read-your-writes token parks them until the replica has applied the
   client's own writes. Owns [t.gate]. *)

open Cohort_state

(* ------------------------------------------------------------------ *)
(* Leader lease: implicit in the leader's ZK session. The lease is granted
   by election (becoming leader requires a live session) and renewed by
   every heartbeat; it is valid while the last successful contact with the
   service is fresher than [lease_fraction] of the session timeout. The
   margin argument: [last_contact] is a lower bound on when the server last
   heard from this session, and the ZK client declares its own session dead
   only after half the timeout of silence — which is what permits a
   replacement election — so any fraction < 0.5 lapses strictly before a
   new leader can exist anywhere. *)

let leases_enabled t = t.ctx.config.Config.lease_fraction > 0.0 && not t.gate.lease_disabled

let lease_valid t =
  let config = t.ctx.config in
  let zk = t.ctx.zk () in
  Coord.Zk_client.alive zk
  &&
  let held =
    Sim.Sim_time.diff (Sim.Engine.now t.ctx.engine) (Coord.Zk_client.last_contact zk)
  in
  let lease_us =
    config.Config.lease_fraction
    *. float_of_int (Sim.Sim_time.to_us config.Config.session_timeout)
  in
  float_of_int (Sim.Sim_time.to_us held) < lease_us

(* Re-check before a strong reply leaves: the request may have sat in the
   CPU queue (or behind a read-index round) while this replica was deposed
   or its lease lapsed. *)
let strong_serve_ok t = t.role = Leader && ((not (leases_enabled t)) || lease_valid t)

(* Serve every parked token read whose fence the applied commit point has
   reached; called wherever cmt advances (commit, catch-up, snapshot). *)
let flush_parked_reads t =
  if t.gate.parked <> [] then begin
    let ready, still =
      List.partition (fun p -> Lsn.(p.p_token <= t.cmt)) (List.rev t.gate.parked)
    in
    t.gate.parked <- List.rev still;
    List.iter
      (fun p ->
        if not p.p_done then begin
          p.p_done <- true;
          span_end t ~span:p.p_wait_span ~trace_id:p.p_trace_id ~tag:"read.wait_lsn"
            "token reached";
          p.p_serve ()
        end)
      ready
  end

(* A read-index round that will not complete answers [Unavailable], so its
   client fails over immediately. *)
let abandon_guard t g reason =
  t.gate.stats.guard_fails <- t.gate.stats.guard_fails + 1;
  span_end t ~span:g.g_span ~trace_id:g.g_trace_id ~tag:"read.guard" reason;
  g.g_finish Message.Unavailable

(* Abandon every outstanding round (stepdown, session expiry, retirement). *)
let fail_guards t =
  if Hashtbl.length t.gate.guards > 0 then begin
    let pending = Hashtbl.fold (fun seq g acc -> (seq, g) :: acc) t.gate.guards [] in
    Hashtbl.reset t.gate.guards;
    List.iter
      (fun (_, g) -> abandon_guard t g "abandoned")
      (List.sort (fun (a, _) (b, _) -> compare a b) pending)
  end

(* The replica retires: parked token reads are answered [Unavailable] so
   their clients fail over at once. *)
let refuse_parked t =
  let parked = List.rev t.gate.parked in
  t.gate.parked <- [];
  List.iter
    (fun p ->
      if not p.p_done then begin
        p.p_done <- true;
        span_end t ~span:p.p_wait_span ~trace_id:p.p_trace_id ~tag:"read.wait_lsn" "retired";
        p.p_finish Message.Unavailable
      end)
    parked

(* Outstanding guard rounds and parked reads die with the node (no replies
   leave a crashed process); their clients time out and retry elsewhere.
   [lease_disabled] and [guard_seq] survive: the former is configuration,
   the latter stays monotone so a stale pre-crash ack can never complete a
   fresh round. *)
let crash t =
  Hashtbl.reset t.gate.guards;
  t.gate.parked <- []

(* Shared consistency gate for every read. It opens the request's
   [phase.read] span (its detail suffixed with [label]); [finish] answers and
   closes that span, on the serve path and on every refusal path alike. Once
   the gate passes, [serve ()] probes what it must and returns the CPU
   service time and the reply, built at the CPU grant; a strong read is
   re-checked there. *)
let gate_read t ~client ~request_id ~label ~consistent ~token serve =
  let stats = t.gate.stats in
  let trace_id = if tracing t then Sim.Trace.request_trace_id ~client ~request_id else -1 in
  let read_span =
    if tracing t then
      span_start t ~trace_id ~tag:"phase.read" (Printf.sprintf "c%d#%d%s" client request_id label)
    else 0
  in
  let finish reply =
    span_end t ~span:read_span ~trace_id ~tag:"phase.read" "replied";
    t.ctx.reply ~client ~request_id reply
  in
  let submit () =
    let service, reply = serve () in
    Sim.Resource.submit t.ctx.cpu ~service
      (guard t (fun () ->
           if consistent && not (strong_serve_ok t) then
             (* Deposed — or the lease lapsed — while the request sat in the
                CPU queue. *)
             finish (Message.Not_leader { hint = t.leader })
           else finish (reply ())))
  in
  if consistent then begin
    if t.role <> Leader then finish (Message.Not_leader { hint = t.leader })
    else if not t.open_for_writes then finish Message.Unavailable
    else if leases_enabled t then begin
      let ok = lease_valid t in
      trace t "lease.check" (if ok then "ok" else "lapsed");
      if ok then begin
        stats.leased <- stats.leased + 1;
        submit ()
      end
      else begin
        (* The correctness half of the lease: a leader that cannot prove its
           session fresh may already be deposed on the far side of a
           partition, so it must refuse rather than risk a stale "strong"
           read. No hint — we genuinely do not know who leads. *)
        stats.lease_rejects <- stats.lease_rejects + 1;
        finish (Message.Not_leader { hint = None })
      end
    end
    else begin
      (* Unleased: a read-index round. The reply is built only after a
         majority of followers confirm our epoch is still current; quorum
         intersection with any takeover quorum means no replacement leader
         can have committed anything yet. *)
      let seq = t.gate.guard_seq in
      t.gate.guard_seq <- seq + 1;
      let gspan =
        if tracing t then
          span_start t ~trace_id ~tag:"read.guard" (Printf.sprintf "#%d" seq)
        else 0
      in
      let g =
        {
          g_finish = finish;
          g_serve =
            (fun () ->
              stats.guarded <- stats.guarded + 1;
              submit ());
          g_acks = [];
          g_span = gspan;
          g_trace_id = trace_id;
        }
      in
      Hashtbl.replace t.gate.guards seq g;
      let msg = Message.Read_guard { range = t.ctx.range; epoch = t.epoch; seq } in
      List.iter (fun f -> t.ctx.send ~trace_id ~dst:f msg) t.active_followers;
      after t (Sim.Sim_time.span_scale t.ctx.config.Config.client_timeout 0.5) (fun () ->
          if Hashtbl.mem t.gate.guards seq then begin
            Hashtbl.remove t.gate.guards seq;
            abandon_guard t g "no quorum; timeout"
          end)
    end
  end
  else if t.role = Offline then
    (* A live node still addressed for a cohort it no longer serves must say
       so: silence would burn the client's full retry timeout. *)
    finish Message.Unavailable
  else begin
    let serve_timeline () =
      (if t.role = Leader then stats.leader_timeline <- stats.leader_timeline + 1
       else stats.follower_timeline <- stats.follower_timeline + 1);
      submit ()
    in
    if Lsn.(token > Lsn.zero) && Lsn.(t.cmt < token) then begin
      (* Read-your-writes: hold the read until our applied prefix covers the
         client's last acked write, bounded by the staleness deadline. *)
      stats.token_waits <- stats.token_waits + 1;
      let wait_span =
        if tracing t then
          span_start t ~trace_id ~lsn:(Lsn.to_string token) ~tag:"read.wait_lsn"
            (Printf.sprintf "cmt=%s token=%s" (Lsn.to_string t.cmt) (Lsn.to_string token))
        else 0
      in
      let p =
        {
          p_finish = finish;
          p_token = token;
          p_serve = serve_timeline;
          p_done = false;
          p_wait_span = wait_span;
          p_trace_id = trace_id;
        }
      in
      t.gate.parked <- p :: t.gate.parked;
      after t t.ctx.config.Config.read_lsn_wait (fun () ->
          if not p.p_done then begin
            p.p_done <- true;
            t.gate.parked <- List.filter (fun q -> not (q == p)) t.gate.parked;
            stats.token_redirects <- stats.token_redirects + 1;
            span_end t ~span:wait_span ~trace_id ~tag:"read.wait_lsn"
              "staleness bound; redirecting to leader";
            finish (Message.Not_leader { hint = t.leader })
          end)
    end
    else serve_timeline ()
  end

(* Probe storage at serve time: the outcome decides the modeled CPU cost — a
   row-cache hit is a hash lookup, a miss pays the base cost plus one probe
   charge per SSTable actually binary-searched (bloom/LSN-pruned tables are
   free). The reply carries the probed values after that service time; the
   read thus linearizes at its probe instant, inside the request window
   (arrival for leased and timeline reads, quorum confirmation for guarded
   ones, token arrival for parked ones). *)
let handle_read t ~client ~request_id ~consistent ~token ~key ~cols ~single =
  let config = t.ctx.config in
  let serve () =
    let probe_cost = ref 0.0 in
    (* Probes one column; the service charge accumulates in [probe_cost] so
       the single-column path (every point read) builds no intermediate
       pairs. *)
    let probe_value col =
      let cell, cost = Store.get_profiled t.ctx.store (key, col) in
      let value =
        match cell with
        | Some c when not (Row.is_tombstone c) ->
          Message.{ value = c.Row.value; version = c.Row.version }
        | Some c -> Message.{ value = None; version = c.Row.version }
        | None -> Message.{ value = None; version = 0 }
      in
      (probe_cost :=
         !probe_cost
         +.
         match cost with
         | Store.Cache_hit -> config.Config.read_cache_hit_service_us
         | Store.Probed probed ->
           config.Config.read_service_us
           +. (float_of_int probed *. config.Config.read_probe_service_us));
      value
    in
    let reply =
      match cols with
      | [ col ] when single -> Message.Value (probe_value col)
      | _ -> Message.Values (List.map (fun col -> (col, probe_value col)) cols)
    in
    (Sim.Sim_time.of_us_f !probe_cost, fun () -> reply)
  in
  let label = if consistent then " strong" else "" in
  gate_read t ~client ~request_id ~label ~consistent ~token serve

(* Range scan over this cohort's slice of the window (§3's data model is
   range-partitioned precisely so scans stay local to consecutive cohorts;
   the client stitches ranges together). Same consistency gating as reads. *)
let handle_scan t ~client ~request_id ~start_key ~end_key ~limit ~consistent ~token =
  let scan () =
    let range_lo, range_hi = t.ctx.range_bounds () in
    let low = if String.compare start_key range_lo > 0 then start_key else range_lo in
    let high = if String.compare end_key range_hi < 0 then end_key else range_hi in
    let rows =
      if String.compare low high >= 0 then [] else Store.scan t.ctx.store ~low ~high ~limit
    in
    let rows =
      List.map
        (fun (key, cols) ->
          ( key,
            List.map
              (fun (col, (cell : Row.cell)) ->
                (col, Message.{ value = cell.value; version = cell.version }))
              cols ))
        rows
    in
    let next = if String.compare range_hi end_key < 0 then Some range_hi else None in
    Message.Rows { rows; next }
  in
  let service = Sim.Sim_time.of_us_f t.ctx.config.Config.read_service_us in
  gate_read t ~client ~request_id ~label:" scan" ~consistent ~token (fun () -> (service, scan))

(* Snapshot anchor capture: a strong read of (cmt, now) under the full
   lease/guard gate, re-validated at the CPU grant — the linearization point
   of a multi-range snapshot in this range. Everything committed here before
   this instant has [lsn <= cmt]; every transaction that commits with
   [commit_ts <= ts] prepared here before this instant (its prepare committed
   before its decision was timestamped), so its intent or final cell is at or
   below the fence. *)
let handle_fence t ~client ~request_id =
  let service = Sim.Sim_time.of_us_f t.ctx.config.Config.read_cache_hit_service_us in
  gate_read t ~client ~request_id ~label:" fence" ~consistent:true ~token:Lsn.zero (fun () ->
      (service, fun () -> Message.Fenced { lsn = t.cmt; ts = now_us t }))

(* MVCC snapshot read: served by any replica via the timeline gate, parked on
   the fence LSN as its read-your-writes token — once the applied prefix
   covers the fence, interval visibility against (fence, fence_ts) is
   well-defined locally. *)
let handle_snap_get t ~client ~request_id ~key ~col ~fence ~fence_ts =
  let read () =
    match Store.snapshot_get t.ctx.store (key, col) ~fence ~fence_ts with
    | Store.Snap_blocked txn -> Message.Snap_blocked { txn }
    | Store.Snap_cell c when not (Row.is_tombstone c) ->
      Message.Value { value = c.Row.value; version = c.Row.version }
    | Store.Snap_cell c -> Message.Value { value = None; version = c.Row.version }
    | Store.Snap_none -> Message.Value { value = None; version = 0 }
  in
  let service = Sim.Sim_time.of_us_f t.ctx.config.Config.read_service_us in
  gate_read t ~client ~request_id ~label:" snap" ~consistent:false ~token:fence (fun () ->
      (service, read))

(* Leader side: a guard completes on its [majority - 1]'th distinct member
   ack (the leader itself is the quorum's last member). Ack bookkeeping runs
   through the leader's CPU: read-index rounds are not free for the leader —
   every guarded read costs it one ack-processing slot per responding
   follower, which is exactly why the lease pays off at saturation. *)
let handle_guard_ack t ~from ~seq =
  let service = Sim.Sim_time.of_us_f t.ctx.config.Config.read_guard_service_us in
  Sim.Resource.submit t.ctx.cpu ~service
    (guard t (fun () ->
         if t.role = Leader && List.mem from (t.ctx.members ()) then
           match Hashtbl.find_opt t.gate.guards seq with
           | Some g when not (List.mem from g.g_acks) ->
             g.g_acks <- from :: g.g_acks;
             if List.length g.g_acks >= Config.majority t.ctx.config - 1 then begin
               Hashtbl.remove t.gate.guards seq;
               span_end t ~span:g.g_span ~trace_id:g.g_trace_id ~tag:"read.guard"
                 "quorum confirmed";
               g.g_serve ()
             end
           | _ -> ()))
