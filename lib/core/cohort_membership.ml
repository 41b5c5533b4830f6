(* Live membership change (§10): replica migration — the leader ships a
   snapshot of its store to a joining node, catches it up from the snapshot
   horizon, then commits a [Cohort_change] that swaps it in — and range
   splits, logged as a [Split] record with both children serving off shared
   SSTables. *)

open Cohort_state

(* ------------------------------------------------------------------ *)
(* Migration: leader side.                                              *)

(* Ship the current chunk through the node's bulk-transfer link (bandwidth-
   modelled), then retransmit every 500ms until the joiner acks it. *)
let rec migration_send_chunk t =
  match t.migration with
  | Some m when t.role = Leader && m.phase = `Snapshot && m.next_chunk < Array.length m.chunks
    ->
    let seq = m.next_chunk in
    m.attempts <- m.attempts + 1;
    if m.attempts > 20 then abort_migration t "snapshot retries exhausted"
    else begin
      let msg =
        Message.Snapshot_chunk
          {
            range = t.ctx.range;
            epoch = t.epoch;
            seq;
            total = Array.length m.chunks;
            cells = m.chunks.(seq);
            upto = m.upto;
            final = seq = Array.length m.chunks - 1;
          }
      in
      Sim.Resource.submit_bytes t.ctx.xfer ~bytes:(Message.size msg)
        ~bytes_per_sec:t.ctx.config.Config.xfer_bytes_per_sec
        (guard t (fun () ->
             match t.migration with
             | Some m' when m' == m && t.role = Leader && m.phase = `Snapshot && m.next_chunk = seq
               ->
               t.ctx.send ~dst:m.joiner msg;
               after t (Sim.Sim_time.ms 500) (fun () ->
                   match t.migration with
                   | Some m' when m' == m && m.phase = `Snapshot && m.next_chunk = seq ->
                     migration_send_chunk t
                   | _ -> ())
             | _ -> ()))
    end
  | _ -> ()

let handle_snapshot_ack t ~from ~seq =
  match t.migration with
  | Some m when t.role = Leader && from = m.joiner && m.phase = `Snapshot && seq = m.next_chunk
    ->
    m.next_chunk <- seq + 1;
    m.attempts <- 0;
    if m.next_chunk >= Array.length m.chunks then begin
      (* Snapshot installed; catch the joiner up from the snapshot horizon
         through the live log, exactly like a rejoining follower. *)
      m.phase <- `Catchup;
      trace t "migration_catchup"
        (Printf.sprintf "joiner=n%d upto=%s" m.joiner (Lsn.to_string m.upto));
      Cohort_replication.leader_run_catchup t ~follower:m.joiner ~f_cmt:m.upto;
      after t t.ctx.config.Config.migration_timeout (fun () ->
          match t.migration with
          | Some m' when m' == m && m.phase <> `Change ->
            abort_migration t "catch-up stalled"
          | _ -> ())
    end
    else migration_send_chunk t
  | _ -> ()

(* Snapshot = the newest committed cell per coordinate (tombstones included)
   plus the retained older MVCC versions behind each — without the chain
   tails the joiner could not answer an interval snapshot read whose
   timestamp predates a coordinate's newest version. Chunked by size; always
   at least one chunk, so an empty range still teaches the joiner the
   snapshot horizon. Sorted by LSN so the joiner installs in log order and,
   crucially, so a chunk boundary never splits one LSN: the joiner appends
   one WAL record per LSN and skips LSNs it already holds durably, so the
   second half of a straddled LSN would silently miss the WAL. *)
let snapshot_chunks t cells =
  let chunk_bytes = t.ctx.config.Config.snapshot_chunk_bytes in
  let chunks = ref [] and cur = ref [] and cur_bytes = ref 0 in
  List.iter
    (fun ((coord, (cell : Row.cell)) as c) ->
      let key, col = coord in
      let b =
        String.length key + String.length col
        + (match cell.value with Some v -> String.length v | None -> 0)
        + 24
      in
      let boundary =
        !cur_bytes >= chunk_bytes
        && match !cur with (_, (p : Row.cell)) :: _ -> not (Lsn.equal p.lsn cell.lsn) | [] -> false
      in
      if boundary then begin
        chunks := List.rev !cur :: !chunks;
        cur := [];
        cur_bytes := 0
      end;
      cur := c :: !cur;
      cur_bytes := !cur_bytes + b)
    cells;
  if !cur <> [] || !chunks = [] then chunks := List.rev !cur :: !chunks;
  Array.of_list (List.rev !chunks)

(* Admin entry point (leader only): bootstrap [joiner] into the cohort,
   retiring [remove] once the joiner is in. Returns false if the cohort
   cannot start a migration right now. *)
let request_join t ~joiner ?remove () =
  let members = t.ctx.members () in
  let valid_remove =
    match remove with
    | None -> true
    | Some r -> r <> joiner && r <> t.ctx.node_id && List.mem r members
  in
  if
    t.role = Leader && t.open_for_writes
    && Option.is_none t.migration
    && (not t.splitting)
    && (not (List.mem joiner members))
    && valid_remove
  then begin
    let cells =
      Store.all_cells t.ctx.store @ Store.chain_history_cells t.ctx.store
      |> List.stable_sort (fun (_, (a : Row.cell)) (_, (b : Row.cell)) ->
             Lsn.compare a.lsn b.lsn)
    in
    let chunks = snapshot_chunks t cells in
    let m =
      { joiner; remove; chunks; upto = t.cmt; next_chunk = 0; phase = `Snapshot; attempts = 0 }
    in
    t.migration <- Some m;
    trace t "migration_start"
      (Printf.sprintf "joiner=n%d remove=%s chunks=%d cells=%d upto=%s" joiner
         (match remove with Some r -> Printf.sprintf "n%d" r | None -> "-")
         (Array.length chunks) (List.length cells) (Lsn.to_string t.cmt));
    migration_send_chunk t;
    true
  end
  else false

(* ------------------------------------------------------------------ *)
(* Migration: joiner (learner) side.                                    *)

(* Become a learner replica: receive the snapshot and catch-up, ack
   proposes (they do not count toward the old majority), but never vote in
   elections. A learner that is never promoted retires itself. *)
let start_learner t ~leader =
  t.role <- Follower;
  t.learner <- true;
  t.snapshot_next <- 0;
  t.catching_up <- true;
  t.leader <- Some leader;
  t.last_leader_msg <- Sim.Engine.now t.ctx.engine;
  trace t "learner_start" (Printf.sprintf "leader=n%d" leader);
  let inc = t.ctx.incarnation () in
  ignore
    (Sim.Engine.schedule t.ctx.engine ~after:t.ctx.config.Config.learner_timeout (fun () ->
         if t.ctx.incarnation () = inc && t.learner && t.role <> Offline then begin
           trace t "learner_abort" "never promoted; migration aborted";
           t.ctx.retire_self ()
         end))

(* Install one snapshot chunk. Strictly in-order: acking chunk [k] promises
   every chunk [<= k] is installed and durable, so a joiner that crashed and
   restarted mid-transfer (losing its WAL tail and its chunk counter) never
   acks the next chunk — the source retries, then aborts cleanly. Duplicate
   chunks (a retransmission racing the ack) are re-acked idempotently. *)
let handle_snapshot_chunk t ~src ~epoch ~seq ~cells ~upto ~final =
  if t.role = Follower && t.learner && epoch >= t.epoch then begin
    if epoch > t.epoch then t.epoch <- epoch;
    t.leader <- Some src;
    t.last_leader_msg <- Sim.Engine.now t.ctx.engine;
    let ack () =
      t.ctx.send ~dst:src
        (Message.Snapshot_ack { range = t.ctx.range; from = t.ctx.node_id; seq })
    in
    if seq < t.snapshot_next then ack ()
    else if seq > t.snapshot_next then ()
    else begin
      t.snapshot_next <- seq + 1;
      let own = Store.durable_write_lsns_in t.ctx.store ~above:Lsn.zero ~upto in
      Cohort_replication.install_cells t ~own cells;
      if final then begin
        (* The snapshot horizon is our commit point: every committed write at
           or below it is covered by the installed cells. *)
        t.cmt <- Lsn.max t.cmt upto;
        t.lst <- t.cmt;
        Wal.append t.ctx.wal (Log_record.commit_upto ~cohort:t.ctx.range t.cmt);
        trace t "snapshot_installed"
          (Printf.sprintf "from n%d upto=%s" src (Lsn.to_string t.cmt));
        Cohort_read.flush_parked_reads t
      end;
      (* Ack only once durable: the promise behind the ack is that a crash
         cannot silently lose this chunk. *)
      Wal.force t.ctx.wal (guard t ack)
    end
  end

(* ------------------------------------------------------------------ *)
(* Range split: a hot range [lo, hi) splits at a median key into
   [lo, at) + [at, hi), both children serving before any data is
   rewritten — the child shares the parent's SSTables.                  *)

(* Admin entry point (leader only). The split point is the store's median
   key; the child range id is allocated from the coordination service; the
   child's election znodes are pre-created with the parent's current epoch
   (so the child's first leader allocates a strictly larger one and its
   writes beat every inherited cell under LSN order); then the parent
   drains its commit queue, flushes, and logs the split record. *)
let request_split t =
  if
    t.role = Leader && t.open_for_writes && Option.is_none t.migration && not t.splitting
  then begin
    match Store.split_point t.ctx.store with
    | None -> false
    | Some at ->
      t.splitting <- true;
      trace t "split_start" (Printf.sprintf "at=%s" at);
      let zk = t.ctx.zk () in
      Coord.Zk_client.incr_counter zk ~path:"/next_range"
        (guard t (fun new_range ->
             if t.role = Leader && t.splitting then begin
               let prefix = Printf.sprintf "/ranges/%d" new_range in
               let create path k =
                 (* Already-exists errors are fine: a previous leader's split
                    attempt may have created the znodes before dying. *)
                 Coord.Zk_client.create_node zk ~path
                   ~data:(string_of_int t.epoch) (guard t (fun _ -> k ()))
               in
               create prefix (fun () ->
                   create (prefix ^ "/candidates") (fun () ->
                       create (prefix ^ "/epoch") (fun () ->
                           (* New writes are parked by [t.splitting]; wait for
                              the in-flight tail to commit, then flush so the
                              shared SSTables hold everything up to the split
                              record, and log it. *)
                           let rec drain () =
                             if t.role <> Leader then t.splitting <- false
                             else if Commit_queue.length t.queue > 0 then
                               after t (Sim.Sim_time.ms 50) drain
                             else begin
                               Store.flush t.ctx.store;
                               Cohort_replication.enqueue_meta t
                                 (Log_record.Split { at; new_range })
                             end
                           in
                           drain ())))
             end));
      true
  end
  else false
