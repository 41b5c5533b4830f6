(* Leader election through the coordination service (§7, Figure 7), the
   start of a leader takeover (Figure 6), and the follower-side liveness
   machinery that falls back into an election or a re-sync: the leader
   watch, the catch-up request and the strand detector. *)

open Cohort_state

(* ------------------------------------------------------------------ *)
(* Leader takeover (Figure 6).                                          *)

let start_takeover t =
  trace t "takeover_start"
    (Printf.sprintf "epoch=%d cmt=%s lst=%s" t.epoch (Lsn.to_string t.cmt)
       (Lsn.to_string t.lst));
  t.takeover_pending <- true;
  t.takeover_open_at <- t.lst;
  t.takeover_commit_wait <- false;
  t.open_for_writes <- false;
  t.active_followers <- [];
  (* Rebuild the commit queue with the unresolved writes in (l.cmt, l.lst]
     from the durable log (they may not be in memory if we just restarted).
     They are already forced locally; they commit once a follower acks. *)
  List.iter
    (fun (lsn, op, timestamp, origin) ->
      if not (Commit_queue.mem t.queue lsn) then
        Commit_queue.add t.queue ~lsn ~op ~timestamp ?origin ())
    (Wal.durable_writes_in t.ctx.wal ~cohort:t.ctx.range ~above:t.cmt ~upto:t.lst);
  Commit_queue.mark_forced_upto t.queue t.lst;
  (* Nothing above the contiguous prefix lst was ever committed — a
     committed record up there would have out-bid us in the max-lst
     election — so records beyond it (appends stranded past a loss-induced
     hole, or a deposed epoch's tail) are dead: purge them from the queue
     and logically truncate the log records so neither re-proposal nor local
     recovery can resurrect them under the new epoch. *)
  clear_dropped t (Commit_queue.drop_above t.queue t.lst);
  let orphans =
    List.filter
      (fun l -> not (Skipped_lsns.mem (Store.skipped t.ctx.store) l))
      (Store.durable_write_lsns_in t.ctx.store ~above:t.lst
         ~upto:(Wal.last_write_lsn t.ctx.wal ~cohort:t.ctx.range))
  in
  truncate_logically t orphans;
  (* Pending entries' originating requests are in flight again: a client
     retry arriving mid-takeover must wait for the re-proposed original to
     commit, not enqueue a second copy behind it. *)
  List.iter
    (fun (e : Commit_queue.entry) ->
      match e.Commit_queue.origin with
      | Some (client, request_id) ->
        if Option.is_none (dedup_find t ~client ~request_id) then
          dedup_set t ~client ~request_id In_flight
      | None -> ())
    (Commit_queue.to_list t.queue);
  (* Ask each follower for its last committed LSN (Figure 6 lines 3-4). *)
  List.iter
    (fun f -> t.ctx.send ~dst:f (Message.Takeover_query { range = t.ctx.range; epoch = t.epoch }))
    (others t);
  (* Followers may be down; retry the query until a quorum forms. *)
  let rec retry () =
    if t.role = Leader && t.takeover_pending then begin
      List.iter
        (fun f ->
          if not (List.mem f t.active_followers) then
            t.ctx.send ~dst:f (Message.Takeover_query { range = t.ctx.range; epoch = t.epoch }))
        (others t);
      after t (Sim.Sim_time.ms 1000) retry
    end
  in
  after t (Sim.Sim_time.ms 1000) retry

(* ------------------------------------------------------------------ *)
(* Follower re-sync (§6.1).                                             *)

(* A rejoining follower advertises f.cmt to the leader (§6.1); retried until
   the leader answers (it may itself still be coming up). *)
let rec request_catchup t =
  match t.leader with
  | Some leader when t.role = Follower && t.catching_up ->
    t.ctx.send ~dst:leader
      (Message.Catchup_request { range = t.ctx.range; from = t.ctx.node_id; cmt = t.cmt });
    after t (Sim.Sim_time.ms 1000) (fun () -> if t.catching_up then request_catchup t)
  | _ -> ()

(* A follower whose propose stream has a hole (a lost message) cannot make
   commit progress on its own; an explicit catch-up from the leader closes
   the gap. *)
let start_resync t =
  if t.role = Follower && not t.catching_up then begin
    t.catching_up <- true;
    request_catchup t
  end

(* Strand detection: the leader heartbeats every commit period (commit
   messages are sent even when idle), so a follower that has heard nothing
   for several periods is cut off — by loss, a one-way partition, or a
   silent leader change — and proactively re-syncs rather than serving ever
   staler timeline reads and holding a stale commit queue. *)
let arm_resync_timer t =
  if not t.resync_armed then begin
    t.resync_armed <- true;
    let period = t.ctx.config.Config.commit_period in
    let rec check () =
      if t.role = Follower || t.role = Candidate then begin
        (if t.role = Follower && (not t.catching_up) && t.leader <> None then begin
           let silent = Sim.Sim_time.diff (Sim.Engine.now t.ctx.engine) t.last_leader_msg in
           if Sim.Sim_time.span_compare silent (Sim.Sim_time.span_scale period 3.0) > 0 then begin
             trace t "resync"
               (Printf.sprintf "leader silent for %.0fms" (Sim.Sim_time.to_ms_f silent));
             start_resync t
           end
         end);
        after t period check
      end
      else t.resync_armed <- false
    in
    after t period check
  end

(* ------------------------------------------------------------------ *)
(* Leader election (Figure 7).                                          *)

let candidate_data t = Printf.sprintf "%s;%d" (Lsn.to_string t.lst) t.ctx.node_id

let parse_candidate data =
  match String.split_on_char ';' data with
  | [ lsn_s; node_s ] -> (
    match (String.split_on_char '.' lsn_s, int_of_string_opt node_s) with
    | [ e; s ], Some node -> (
      match (int_of_string_opt e, int_of_string_opt s) with
      | Some epoch, Some seq -> Some (Lsn.make ~epoch ~seq, node)
      | _ -> None)
    | _ -> None)
  | _ -> None

(* The new leader is the candidate with the max n.lst (Figure 7 line 6).
   Ties prefer the earliest node in the cohort's chained-declustering order
   — keeping leadership balanced across the cluster (the primary leads its
   base range when logs are equal) — then znode sequence. *)
let pick_winner t kids =
  let position node =
    let rec find i = function
      | [] -> max_int
      | m :: rest -> if m = node then i else find (i + 1) rest
    in
    find 0 (t.ctx.members ())
  in
  let parsed =
    List.filter_map
      (fun (name, data) -> Option.map (fun (lsn, node) -> (name, lsn, node)) (parse_candidate data))
      kids
  in
  match parsed with
  | [] -> None
  | (name0, lsn0, node0) :: rest ->
    let _, _, winner =
      List.fold_left
        (fun (bn, bl, bw) (name, lsn, node) ->
          let beats =
            if not (Lsn.equal lsn bl) then Lsn.(lsn > bl)
            else if position node <> position bw then position node < position bw
            else String.compare name bn < 0
          in
          if beats then (name, lsn, node) else (bn, bl, bw))
        (name0, lsn0, node0) rest
    in
    Some winner

let rec watch_leader_liveness t =
  if not t.leader_watch_armed then begin
    t.leader_watch_armed <- true;
    let zk = t.ctx.zk () in
    Coord.Zk_client.watch_node zk ~path:(zk_leader t)
      (guard t (fun () ->
           t.leader_watch_armed <- false;
           Coord.Zk_client.get_data zk ~path:(zk_leader t)
             (guard t (function
               | Ok _ -> watch_leader_liveness t
               | Error _ ->
                 (* The leader's ephemeral znode vanished: its session
                    expired. Elect a new leader (§7). *)
                 t.leader <- None;
                 start_election t))))
  end

and become_follower t ~leader ~catchup =
  t.role <- Follower;
  t.leader <- Some leader;
  t.election_running <- false;
  (* Leader-side pipeline state is meaningless once we step down. *)
  t.unproposed <- [];
  Queue.clear t.inflight_props;
  t.last_leader_msg <- Sim.Engine.now t.ctx.engine;
  trace t "follower" (Printf.sprintf "leader=n%d" leader);
  watch_leader_liveness t;
  arm_resync_timer t;
  if catchup then begin
    t.catching_up <- true;
    request_catchup t
  end

and become_leader t =
  t.election_running <- false;
  t.leader <- Some t.ctx.node_id;
  t.role <- Leader;
  t.catching_up <- false;
  (* Fresh leadership stint: no outstanding Propose batches yet, and any
     coalesced ack we owed the previous leader is moot. *)
  t.unproposed <- [];
  Queue.clear t.inflight_props;
  t.ack_pending <- None;
  trace t "leader_elected" (Printf.sprintf "lst=%s" (Lsn.to_string t.lst));
  watch_leader_liveness t;
  let zk = t.ctx.zk () in
  (* A new epoch number is stored in Zookeeper before the leader accepts any
     new writes (Appendix B), making new LSNs greater than any previously
     used in the cohort. *)
  Coord.Zk_client.incr_counter zk ~path:(zk_epoch t)
    (guard t (fun epoch ->
         if t.role = Leader then begin
           t.epoch <- Stdlib.max t.epoch epoch;
           (* Clean up the finished election's candidate znodes (the
              directory itself stays, so sequence numbers never clash with
              paths peers still remember). *)
           Coord.Zk_client.children zk ~path:(zk_candidates t) (fun result ->
               match result with
               | Ok kids ->
                 List.iter
                   (fun (name, _) ->
                     Coord.Zk_client.delete_node zk
                       ~path:(zk_candidates t ^ "/" ^ name)
                       (fun _ -> ()))
                   kids
               | Error _ -> ());
           t.own_candidate <- None;
           start_takeover t
         end))

and read_leader_then_follow t =
  let zk = t.ctx.zk () in
  Coord.Zk_client.get_data zk ~path:(zk_leader t)
    (guard t (function
      | Ok data -> (
        match int_of_string_opt data with
        | Some leader when leader = t.ctx.node_id ->
          if t.role = Leader then
            (* We already held leadership (e.g. spurious election). *)
            t.election_running <- false
          else begin
            (* The /leader znode carries our id but we do not hold the role:
               it is a stale ephemeral from our own previous session (we
               crashed and came back within the session timeout). Nobody
               else can win while it exists, and we must not claim
               leadership off a dying session — wait for the old session to
               expire (deleting the znode) and re-run the election. *)
            t.election_running <- false;
            trace t "stale_leader_znode" "own id from a previous session";
            Coord.Zk_client.watch_node zk ~path:(zk_leader t)
              (guard t (fun () -> if t.role <> Leader then start_election t))
          end
        | Some leader -> become_follower t ~leader ~catchup:true
        | None -> t.election_running <- false)
      | Error _ ->
        (* Not written yet: learn it when the winner writes it (Fig 7 l.11). *)
        Coord.Zk_client.watch_node zk ~path:(zk_leader t)
          (guard t (fun () -> read_leader_then_follow t))))

and evaluate_candidates t kids =
  match pick_winner t kids with
  | None -> ()
  | Some winner ->
    trace t "election_eval" (Printf.sprintf "winner=n%d of %d candidates" winner (List.length kids));
    if winner = t.ctx.node_id then begin
      let zk = t.ctx.zk () in
      Coord.Zk_client.create_node zk ~path:(zk_leader t)
        ~data:(string_of_int t.ctx.node_id) ~ephemeral:true
        (guard t (function
          | Ok _ -> become_leader t
          | Error _ ->
            (* Someone else won the race to /r/leader; follow them. *)
            read_leader_then_follow t))
    end
    else read_leader_then_follow t

and announce_candidacy t =
  if t.election_running then begin
    let zk = t.ctx.zk () in
    (* Announce candidacy: a sequential ephemeral znode holding n.lst
       (Figure 7 line 4). *)
    Coord.Zk_client.create_node zk
      ~path:(zk_candidates t ^ "/c-")
      ~data:(candidate_data t) ~ephemeral:true ~sequential:true
      (guard t (function
        | Ok path ->
          trace t "candidate" path;
          t.own_candidate <- Some path;
          await_candidates t
        | Error e ->
          trace t "candidate_error" (Format.asprintf "%a" Coord.Ztree.pp_error e);
          t.election_running <- false;
          after t (Sim.Sim_time.ms 100) (fun () -> start_election t)))
  end

and await_candidates t =
  if t.election_running then begin
    let zk = t.ctx.zk () in
    (* Arm the watch before reading, so no change is missed (Fig 7 line 5). *)
    Coord.Zk_client.watch_children zk ~path:(zk_candidates t)
      (guard t (fun () -> await_candidates t));
    Coord.Zk_client.children zk ~path:(zk_candidates t)
      (guard t (fun result ->
           if t.election_running then
             match result with
             | Ok kids ->
               (* Our own candidacy can be swept away by a previous winner's
                  cleanup racing this election: re-announce rather than wait
                  on a znode that no longer exists. *)
               let own_present =
                 match t.own_candidate with
                 | Some path ->
                   List.exists (fun (name, _) -> zk_candidates t ^ "/" ^ name = path) kids
                 | None -> false
               in
               if not own_present then announce_candidacy t
               else if List.length kids >= Config.majority t.ctx.config then
                 evaluate_candidates t kids
             | Error _ -> ()))
  end

and start_election t =
  (* Learners and replicas no longer in the membership must not vote: a
     learner's log is a partial snapshot (its lst is not comparable under the
     max-lst rule), and a migrated-away replica claiming leadership would
     resurrect the old configuration. *)
  if
    t.role <> Offline && (not t.election_running) && (not t.learner)
    && List.mem t.ctx.node_id (t.ctx.members ())
  then begin
    t.election_running <- true;
    t.role <- Candidate;
    t.leader <- None;
    close_for_writes t;
    trace t "election_start" (Printf.sprintf "lst=%s" (Lsn.to_string t.lst));
    let zk = t.ctx.zk () in
    (* Clean up our stale state from a previous round (Figure 7 line 1). *)
    match t.own_candidate with
    | Some path ->
      t.own_candidate <- None;
      Coord.Zk_client.delete_node zk ~path (guard t (fun _ -> announce_candidacy t))
    | None -> announce_candidacy t
  end

(* Leader traffic accepted: note the contact (for stranding detection) and,
   if we were mid-election, abandon it — a live leader exists. Every path
   that makes this replica a follower arms the leader watch. *)
let accept_leader t ~src ~epoch =
  if epoch > t.epoch then t.epoch <- epoch;
  if t.role = Candidate then begin
    t.role <- Follower;
    t.election_running <- false
  end;
  t.leader <- Some src;
  t.last_leader_msg <- Sim.Engine.now t.ctx.engine;
  watch_leader_liveness t;
  arm_resync_timer t

let handle_takeover_query t ~src ~epoch =
  if t.role <> Offline && epoch >= t.epoch then begin
    if epoch > t.epoch then t.epoch <- epoch;
    (* A deposed leader rejoins the cohort as a follower (§6.2). *)
    if t.role = Leader then begin
      trace t "stepdown" (Printf.sprintf "new_epoch=%d" epoch);
      close_for_writes t;
      Cohort_read.fail_guards t;
      (* A deposed leader's in-flight migration or split dies with its term;
         if the metadata record was already logged the new leader's takeover
         resolves it like any other write. *)
      abort_migration t "leader deposed";
      t.splitting <- false;
      fail_waiting t
    end;
    (* Whatever the role was, the querying leader is followed. *)
    t.role <- Follower;
    t.election_running <- false;
    accept_leader t ~src ~epoch;
    t.catching_up <- true;
    t.ctx.send ~dst:src
      (Message.Takeover_info
         { range = t.ctx.range; from = t.ctx.node_id; cmt = t.cmt; lst = t.lst })
  end

(* Read the current leader from Zookeeper and fall in line: follow it, or run
   an election if there is none (or the registered leader is ourselves — we
   no longer hold that role after a crash or session loss). *)
let join_cohort t =
  let zk = t.ctx.zk () in
  Coord.Zk_client.get_data zk ~path:(zk_leader t)
    (guard t (function
      | Ok data -> (
        match int_of_string_opt data with
        | Some leader when leader <> t.ctx.node_id ->
          become_follower t ~leader ~catchup:true
        | _ -> start_election t)
      | Error _ -> start_election t))
