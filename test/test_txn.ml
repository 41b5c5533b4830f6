(* Transaction-layer tests: the QCheck differential against the plain write
   path, MVCC snapshot-visibility properties at the store, the
   serializability checker's anomaly fixtures, and the row-cache/snapshot
   isolation regression.

   The differential is the layering contract: a transaction with no reads
   and one single-cell write takes the blind fast path and must be
   byte-identical to [Client.put] — same messages, same timing, same
   history fingerprint — so the txn layer is a strict generalization of the
   write path rather than a parallel implementation that could drift. *)

open Spinnaker
module History = Workload.History
module Lsn = Storage.Lsn
module Row = Storage.Row
module Store = Storage.Store
module Wal = Storage.Wal
module Log_record = Storage.Log_record

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str_opt = Alcotest.(check (option string))

let lsn e s = Lsn.make ~epoch:e ~seq:s

let test_config =
  {
    Config.default with
    Config.nodes = 3;
    disk = Sim.Disk_model.Ssd;
    commit_period = Sim.Sim_time.ms 200;
    session_timeout = Sim.Sim_time.ms 500;
  }

(* --- differential: 1-key txns vs the plain write path --------------------- *)

(* One schedule of single-key puts, executed either through [Client.put] or
   as 1-key transactions through [Txn.run]. Identical seed, cluster build,
   and inter-write gaps; the recorded history's fingerprint (keys, seqs,
   ack outcomes, invocation/completion sim-times) is the oracle. Any
   divergence — an extra message, a different retry, a shifted ack — moves
   a completion time and changes the digest. *)
let run_put_schedule ~as_txn ~seed ops =
  let engine = Sim.Engine.create ~seed () in
  let cluster = Cluster.create engine test_config in
  Cluster.start cluster;
  if not (Cluster.run_until_ready cluster) then
    Alcotest.failf "seed %d: cluster never became ready" seed;
  let client = Cluster.new_client cluster in
  let mgr = Txn.manager ~engine ~config:test_config client in
  let partition = Cluster.partition cluster in
  let history = History.create () in
  let seqs = Hashtbl.create 8 in
  List.iter
    (fun (key_idx, gap_ms) ->
      let key = Partition.key_of_int partition key_idx in
      let seq = 1 + (match Hashtbl.find_opt seqs key with Some n -> n | None -> 0) in
      Hashtbl.replace seqs key seq;
      let invoked = Sim.Engine.now engine in
      let settled = ref None in
      (if as_txn then
         Txn.run mgr ~reads:[]
           ~compute:(fun _ -> [ (key, "c", Some (string_of_int seq)) ])
           (fun outcome ->
             settled := Some (match outcome with Txn.Committed _ -> true | _ -> false))
       else
         Client.put client key "c" ~value:(string_of_int seq) (fun r ->
             settled := Some (Result.is_ok r)));
      let rec drive n =
        match !settled with
        | Some acked ->
          History.record_write history ~key ~seq ~invoked
            ~completed:(Sim.Engine.now engine) ~acked
        | None when n = 0 -> Alcotest.failf "seed %d: write never settled" seed
        | None ->
          Sim.Engine.run_for engine (Sim.Sim_time.ms 5);
          drive (n - 1)
      in
      drive 2_000;
      if gap_ms > 0 then Sim.Engine.run_for engine (Sim.Sim_time.ms gap_ms))
    ops;
  History.fingerprint history

let prop_single_key_txn_differential =
  QCheck.Test.make ~name:"1-key txns are byte-identical to plain puts" ~count:300
    QCheck.(
      pair (int_bound 9_999)
        (list_of_size (Gen.int_range 1 5) (pair (int_bound 7) (int_bound 40))))
    (fun (seed, ops) ->
      String.equal
        (run_put_schedule ~as_txn:false ~seed ops)
        (run_put_schedule ~as_txn:true ~seed ops))

(* --- MVCC visibility at the store ----------------------------------------- *)

let make_logged_store ?(cache_capacity = 0) ?compaction_fanin ?max_sstables () =
  let engine = Sim.Engine.create () in
  let disk = Sim.Resource.create engine ~name:"d" () in
  let model = Sim.Disk_model.create Sim.Disk_model.Ssd in
  let wal = Wal.create engine ~disk ~model ~rng:(Sim.Rng.create 1) () in
  (engine, wal, Store.create ~cohort:0 ~wal ~cache_capacity ?compaction_fanin ?max_sstables ())

let make_store ?cache_capacity () =
  let _, _, store = make_logged_store ?cache_capacity () in
  store

(* Version i of the test coordinate: LSN 1.i; plain writes carry value
   "p<i>", transactionally installed versions "t<i>" with commit timestamp
   i*100. *)
let coord = ("acct", "c")

(* Install the versions through the WAL as a replica does: log, apply, and
   flush after version [flush_at] (0 = never), letting the checkpoint force
   and the log rollover behind it complete before the next version. *)
let install_versions ?(flush_at = 0) (engine, wal, store) kinds =
  List.iteri
    (fun j is_txn ->
      let i = j + 1 in
      let op =
        if is_txn then
          Log_record.Txn_resolve
            {
              txn = Printf.sprintf "t%d" i;
              commit = true;
              ts = i * 100;
              writes = [ (fst coord, snd coord, Some (Printf.sprintf "t%d" i), i) ];
            }
        else
          Log_record.Put
            { key = fst coord; col = snd coord; value = Printf.sprintf "p%d" i; version = i }
      in
      Wal.append wal (Log_record.write ~cohort:0 ~lsn:(lsn 1 i) ~timestamp:(i * 100) op);
      Store.apply store ~lsn:(lsn 1 i) ~timestamp:(i * 100) op;
      if i = flush_at then begin
        Store.flush store;
        Sim.Engine.run engine
      end)
    kinds;
  Wal.append wal (Log_record.commit_upto ~cohort:0 (lsn 1 (List.length kinds)));
  Wal.force wal ignore;
  Sim.Engine.run engine

(* The reference visibility rule, computed over the abstract version list:
   a plain version is visible iff its LSN index is at or below the fence, a
   transactional version iff its commit timestamp is at or below the
   snapshot timestamp. The newest visible version wins; a version above the
   fence must never be served, nor an older one when a newer visible one
   exists ("overwritten at end_lsn <= B"). Only versions [oldest..n] are
   considered: those the store still holds. *)
let expected_visible ?(oldest = 1) kinds ~fence_idx ~fence_ts =
  let n = List.length kinds in
  let rec scan i =
    if i < oldest then None
    else
      let is_txn = List.nth kinds (i - 1) in
      let visible = if is_txn then i * 100 <= fence_ts else i <= fence_idx in
      if visible then Some (Printf.sprintf "%s%d" (if is_txn then "t" else "p") i)
      else scan (i - 1)
  in
  scan n

(* Which versions survive a crash. Log rollover keeps every record of a
   chain a committed transaction had touched when it ran, so recovery
   rebuilds that chain whole. A chain with only plain versions at rollover
   keeps only the records above the checkpoint; below it the SSTable holds
   the newest version, [flush_at], and the older plain history is gone. *)
let oldest_surviving kinds ~flush_at ~crash =
  let txn_before_rollover = List.exists Fun.id (List.filteri (fun j _ -> j < flush_at) kinds) in
  if crash && flush_at >= 1 && flush_at <= List.length kinds && not txn_before_rollover then
    flush_at
  else 1

let prop_snapshot_visibility =
  QCheck.Test.make ~name:"snapshot_get matches the interval visibility rule" ~count:300
    QCheck.(
      triple
        (list_of_size (Gen.int_range 1 12) bool)
        (pair (int_bound 14) (int_bound 15))
        (pair (int_bound 12) bool))
    (fun (kinds, (fence_idx, fts_raw), (flush_at, crash)) ->
      let ((_, _, store) as logged) = make_logged_store () in
      install_versions ~flush_at logged kinds;
      if crash then begin
        Store.crash store;
        ignore (Store.recover store)
      end;
      let fence = if fence_idx = 0 then Lsn.zero else lsn 1 fence_idx in
      let fence_ts = fts_raw * 100 in
      let got =
        match Store.snapshot_get store coord ~fence ~fence_ts with
        | Store.Snap_cell c -> c.Row.value
        | Store.Snap_none -> None
        | Store.Snap_blocked txn -> Some ("blocked:" ^ txn)
      in
      got
      = expected_visible kinds ~fence_idx ~fence_ts
          ~oldest:(oldest_surviving kinds ~flush_at ~crash))

(* An unresolved intent at or below the fence blocks the snapshot reader —
   the owning transaction may yet commit inside the snapshot. Above the
   fence it is invisible and reads proceed. *)
let test_snapshot_blocked_by_intent () =
  let store = make_store () in
  Store.apply store ~lsn:(lsn 1 1) ~timestamp:100
    (Log_record.Put { key = fst coord; col = snd coord; value = "base"; version = 1 });
  Store.apply store ~lsn:(lsn 1 2) ~timestamp:200
    (Log_record.Txn_prepare
       {
         txn = "tx-blocking";
         anchor = fst coord;
         fence = lsn 1 1;
         writes = [ (fst coord, snd coord, Some "proposed") ];
       });
  (match Store.snapshot_get store coord ~fence:(lsn 1 2) ~fence_ts:1_000_000 with
  | Store.Snap_blocked txn -> Alcotest.(check string) "owner" "tx-blocking" txn
  | _ -> Alcotest.fail "intent at/below the fence must block the reader");
  (* A snapshot fenced below the prepare never sees the intent. *)
  (match Store.snapshot_get store coord ~fence:(lsn 1 1) ~fence_ts:1_000_000 with
  | Store.Snap_cell c -> check_str_opt "pre-intent version" (Some "base") c.Row.value
  | _ -> Alcotest.fail "intent above the fence must not block");
  (* Resolution unblocks: commit installs the final cell, clears the intent. *)
  Store.apply store ~lsn:(lsn 1 3) ~timestamp:300
    (Log_record.Txn_resolve
       {
         txn = "tx-blocking";
         commit = true;
         ts = 250;
         writes = [ (fst coord, snd coord, Some "proposed", 2) ];
       });
  match Store.snapshot_get store coord ~fence:(lsn 1 3) ~fence_ts:1_000_000 with
  | Store.Snap_cell c -> check_str_opt "resolved version" (Some "proposed") c.Row.value
  | _ -> Alcotest.fail "resolved write must be visible"

(* --- presumed abort: a failed prepare writes no decision ------------------ *)

(* Every durable [Txn_decision] record for [txn], over all nodes' logs. *)
let decision_records cluster ~txn =
  Array.fold_left
    (fun acc node ->
      List.fold_left
        (fun acc (r : Log_record.t) ->
          match r.entry with
          | Log_record.Write { op = Log_record.Txn_decision { txn = t; _ }; _ }
            when String.equal t txn ->
            acc + 1
          | _ -> acc)
        acc
        (Wal.durable_records (Node.wal node)))
    0 (Cluster.nodes cluster)

(* Every replica store of every range, for whole-cluster state checks. *)
let all_stores cluster =
  let ranges = Partition.ranges (Cluster.partition cluster) in
  Array.to_list (Cluster.nodes cluster)
  |> List.concat_map (fun node ->
         List.filter_map
           (fun range -> Option.map Cohort.store (Node.cohort node ~range))
           (List.init ranges Fun.id))

(* A transfer whose second prepare conflicts with another transaction's
   intent aborts straight away: its first intent is resolved, and no
   decision is logged at its anchor. A later status query — what the
   in-doubt sweep asks — finds no decision, logs the presumed abort, and
   answers with it. *)
let test_presumed_abort_writes_no_decision () =
  let engine = Sim.Engine.create ~seed:7 () in
  let cluster = Cluster.create engine test_config in
  Cluster.start cluster;
  if not (Cluster.run_until_ready cluster) then Alcotest.fail "cluster never became ready";
  let client = Cluster.new_client cluster in
  let partition = Cluster.partition cluster in
  let ka = Partition.key_of_int partition 0 in
  let kb = Partition.key_of_int partition (Partition.key_space partition / 2) in
  let await what cell =
    let rec drive n =
      match !cell with
      | Some v -> v
      | None when n = 0 -> Alcotest.failf "%s never settled" what
      | None ->
        Sim.Engine.run_for engine (Sim.Sim_time.ms 5);
        drive (n - 1)
    in
    drive 2_000
  in
  (* Another transaction holds an intent on kb. *)
  let fenced = ref None in
  Client.fence client kb (fun r -> fenced := Some r);
  let fence, fence_ts =
    match await "fence" fenced with Ok f -> f | Error _ -> Alcotest.fail "fence failed"
  in
  let prepared = ref None in
  Client.txn_prepare client ~txn:"blocker" ~anchor:kb ~fence ~fence_ts
    [ (kb, "c", Some "held") ]
    (fun r -> prepared := Some r);
  (match await "blocker prepare" prepared with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "blocker prepare failed");
  (* The transfer prepares ka (its anchor), then conflicts on kb. *)
  let mgr = Txn.manager ~engine ~config:test_config client in
  let txn = Printf.sprintf "t%d.0" (Client.id client) in
  let outcome = ref None in
  Txn.run mgr ~reads:[]
    ~compute:(fun _ -> [ (ka, "c", Some "1"); (kb, "c", Some "2") ])
    (fun o -> outcome := Some o);
  (match await "transfer" outcome with
  | Txn.Aborted _ -> ()
  | o -> Alcotest.failf "expected an abort, got %a" Txn.pp_outcome o);
  Sim.Engine.run_for engine (Sim.Sim_time.ms 500);
  let stores = all_stores cluster in
  check_bool "no intents left" true
    (List.for_all (fun store -> Store.intents_of store txn = []) stores);
  check_bool "no decision cell at the anchor" true
    (List.for_all (fun store -> Store.get store (ka, Row.decision_col txn) = None) stores);
  check_int "no decision record logged" 0 (decision_records cluster ~txn);
  (* The status query finds nothing on record and logs the abort. *)
  let status = ref None in
  Client.txn_status client ~txn ~anchor:ka (fun r -> status := Some r);
  (match await "status" status with
  | Ok (committed, _) -> check_bool "status answers abort" false committed
  | Error _ -> Alcotest.fail "status query failed");
  Sim.Engine.run_for engine (Sim.Sim_time.ms 500);
  check_bool "the presumed abort is logged" true (decision_records cluster ~txn > 0);
  check_bool "and recorded at the anchor" true
    (List.exists
       (fun store ->
         match Store.get store (ka, Row.decision_col txn) with
         | Some { Row.value = Some payload; _ } -> Row.decode_decision payload <> None
         | _ -> false)
       stores)

(* --- row-cache/snapshot isolation (the satellite bugfix) ------------------- *)

(* Cache the post-fence newest version via the plain read path, then read at
   an older fence: the snapshot must bypass the LRU row cache and serve the
   older version. Served-from-cache would be exactly the bug — the cache
   only knows "newest", not "newest visible at this fence". *)
let test_snapshot_reads_bypass_row_cache () =
  let store = make_store ~cache_capacity:8 () in
  Store.apply store ~lsn:(lsn 1 1) ~timestamp:100
    (Log_record.Put { key = fst coord; col = snd coord; value = "old"; version = 1 });
  Store.apply store ~lsn:(lsn 1 2) ~timestamp:200
    (Log_record.Put { key = fst coord; col = snd coord; value = "new"; version = 2 });
  (* Populate the cache with the newest version and prove it is hot. *)
  ignore (Store.get store coord);
  (match Store.get_profiled store coord with
  | Some c, Store.Cache_hit -> check_str_opt "cached newest" (Some "new") c.Row.value
  | _ -> Alcotest.fail "expected the newest version to be cached");
  let hits_before = Store.cache_hits store in
  (match Store.snapshot_get store coord ~fence:(lsn 1 1) ~fence_ts:1_000_000 with
  | Store.Snap_cell c -> check_str_opt "older fence, older version" (Some "old") c.Row.value
  | _ -> Alcotest.fail "snapshot read at the older fence lost the old version");
  check_int "snapshot read never touched the cache" hits_before (Store.cache_hits store)

(* --- serializability checker anomaly fixtures ------------------------------ *)

(* G1c, circular information flow: T1 reads y from T2 and writes x; T2 reads
   x from T1 and writes y. Two wr edges form a cycle no serial order
   satisfies. *)
let test_checker_catches_g1c () =
  let h = History.create () in
  History.record_txn h ~id:"t1" ~commit_ts:100 ~reads:[ ("y", Some "t2") ] ~writes:[ "x" ];
  History.record_txn h ~id:"t2" ~commit_ts:200 ~reads:[ ("x", Some "t1") ] ~writes:[ "y" ];
  check_bool "G1c cycle reported" true (History.check_serializable h <> [])

(* Lost update: T1 and T2 both read x from T0 and both write x. Whichever
   commits second overwrote a value it never observed — an rw/ww cycle. *)
let test_checker_catches_lost_update () =
  let h = History.create () in
  History.record_txn h ~id:"t0" ~commit_ts:50 ~reads:[] ~writes:[ "x" ];
  History.record_txn h ~id:"t1" ~commit_ts:100 ~reads:[ ("x", Some "t0") ] ~writes:[ "x" ];
  History.record_txn h ~id:"t2" ~commit_ts:150 ~reads:[ ("x", Some "t0") ] ~writes:[ "x" ];
  check_bool "lost update reported" true (History.check_serializable h <> [])

(* A read observing a writer that never committed is dirty by definition. *)
let test_checker_catches_phantom_writer () =
  let h = History.create () in
  History.record_txn h ~id:"t1" ~commit_ts:100 ~reads:[ ("x", Some "ghost") ] ~writes:[ "y" ];
  check_bool "uncommitted writer reported" true (History.check_serializable h <> [])

(* The clean fixture: a serial read-modify-write chain must pass, or the
   checker would drown real anomalies in noise. *)
let test_checker_accepts_serial_chain () =
  let h = History.create () in
  History.record_txn h ~id:"t0" ~commit_ts:50 ~reads:[] ~writes:[ "x"; "y" ];
  History.record_txn h ~id:"t1" ~commit_ts:100
    ~reads:[ ("x", Some "t0"); ("y", Some "t0") ]
    ~writes:[ "x" ];
  History.record_txn h ~id:"t2" ~commit_ts:150
    ~reads:[ ("x", Some "t1"); ("y", Some "t0") ]
    ~writes:[ "y" ];
  Alcotest.(check int) "serial chain is clean" 0 (List.length (History.check_serializable h))

(* --- lazy chains: the LSM answers alone until a second version ------------- *)

(* One step of a single-coordinate history. Version i (LSN 1.i) is applied
   at timestamp i*100; a transactional version commits at ts i*100. *)
type step = Put | Del | Txn_put | Txn_del | Flush | Major

let step_name = function
  | Put -> "put"
  | Del -> "del"
  | Txn_put -> "txn-put"
  | Txn_del -> "txn-del"
  | Flush -> "flush"
  | Major -> "major"

let is_txn = function Txn_put | Txn_del -> true | _ -> false
let is_tomb = function Del | Txn_del -> true | _ -> false

(* Version indices [lo + 1 .. hi]. *)
let versions_above lo ~upto = List.init (upto - lo) (fun i -> lo + i + 1)

(* The store plus a model of what durable state holds: [tables] (one version
   per SSTable, newest first), [mem] (newest version since the last flush),
   [gc] (the log rolls over through this version index). Automatic
   compaction is off, so only [Major] merges tables. *)
type history = {
  engine : Sim.Engine.t;
  wal : Wal.t;
  store : Store.t;
  kinds : (int, step) Hashtbl.t;  (** version index -> how it was written *)
  mutable n : int;
  mutable tables : int list;
  mutable mem : int option;
  mutable gc : int;
  mutable txn_seen : bool;
}

let run_step h step =
  match step with
  | Flush ->
    (match h.mem with
    | Some m ->
      h.tables <- m :: h.tables;
      (* Rollover stops at the checkpoint unless a committed transaction
         touched the coordinate: then it keeps the chain's oldest record,
         version 1, and so drops nothing. *)
      if not h.txn_seen then h.gc <- max h.gc m;
      h.mem <- None
    | None -> ());
    Store.flush h.store;
    Sim.Engine.run h.engine
  | Major ->
    (match h.tables with
    | [] -> ()
    | _ ->
      let newest = List.fold_left max 0 h.tables in
      h.tables <- (if is_tomb (Hashtbl.find h.kinds newest) then [] else [ newest ]));
    Store.major_compact h.store
  | Put | Del | Txn_put | Txn_del ->
    h.n <- h.n + 1;
    let i = h.n in
    let key, col = coord in
    let op =
      match step with
      | Put -> Log_record.Put { key; col; value = Printf.sprintf "v%d" i; version = i }
      | Del -> Log_record.Delete { key; col; version = i }
      | _ ->
        let value = if step = Txn_put then Some (Printf.sprintf "v%d" i) else None in
        Log_record.Txn_resolve
          {
            txn = Printf.sprintf "t%d" i;
            commit = true;
            ts = i * 100;
            writes = [ (key, col, value, i) ];
          }
    in
    Hashtbl.replace h.kinds i step;
    if is_txn step then h.txn_seen <- true;
    h.mem <- Some i;
    Wal.append h.wal (Log_record.write ~cohort:0 ~lsn:(lsn 1 i) ~timestamp:(i * 100) op);
    Store.apply h.store ~lsn:(lsn 1 i) ~timestamp:(i * 100) op

(* Compare the store with the interval rule over [held], the version indices
   durable state still holds: every fence up to one past the newest
   version, and the head. *)
let check_against h held ~where =
  let visible ~fence_idx ~fence_ts i =
    if is_txn (Hashtbl.find h.kinds i) then i * 100 <= fence_ts else i <= fence_idx
  in
  let newest pred = List.fold_left (fun a i -> if pred i then max a i else a) 0 held in
  for fence_idx = 0 to h.n + 1 do
    for ts_idx = 0 to h.n + 1 do
      let fence = if fence_idx = 0 then Lsn.zero else lsn 1 fence_idx in
      let fence_ts = ts_idx * 100 in
      let got =
        match Store.snapshot_get h.store coord ~fence ~fence_ts with
        | Store.Snap_cell c -> c.Row.lsn.Lsn.seq
        | Store.Snap_none -> 0
        | Store.Snap_blocked _ -> -1
      in
      let want = newest (visible ~fence_idx ~fence_ts) in
      if got <> want then
        QCheck.Test.fail_reportf "%s: fence %d ts %d: got version %d, want %d" where fence_idx
          fence_ts got want
    done
  done;
  let want_head =
    match newest (fun _ -> true) with
    | 0 -> None
    | m -> Some (lsn 1 m, if is_txn (Hashtbl.find h.kinds m) then Some (m * 100) else None)
  in
  if Store.head_info h.store coord <> want_head then
    QCheck.Test.fail_reportf "%s: head_info disagrees with version %d" where
      (match want_head with Some (l, _) -> l.Lsn.seq | None -> 0)

let gen_step ~major =
  QCheck.Gen.frequency
    (List.map
       (fun (w, step) -> (w, QCheck.Gen.return step))
       ([ (4, Put); (2, Del); (2, Txn_put); (1, Txn_del); (2, Flush) ]
       @ if major then [ (1, Major) ] else []))

(* Histories of plain puts, deletes, transactional resolves, flushes and
   major compactions, then optionally a crash, recovery and more writes and
   flushes. Before the crash the store must hold every version. After it,
   the log keeps the records above its rollover point and the SSTables
   their one version each, and nothing else. No major compaction follows
   the crash, so the SSTables still hold what they held when it happened. *)
let prop_lazy_chains_match_interval_rule =
  QCheck.Test.make ~name:"lazy chains keep snapshot_get and head_info exact" ~count:1000
    QCheck.(
      make
        ~print:(fun (before, crash, after) ->
          let names l = String.concat " " (List.map step_name l) in
          Printf.sprintf "%s%s" (names before)
            (if crash then " | crash | " ^ names after else ""))
        Gen.(
          triple
            (list_size (int_range 1 14) (gen_step ~major:true))
            bool
            (list_size (int_range 0 6) (gen_step ~major:false))))
    (fun (before, crash, after) ->
      let engine, wal, store =
        make_logged_store ~compaction_fanin:max_int ~max_sstables:max_int ()
      in
      let h =
        { engine; wal; store; kinds = Hashtbl.create 16; n = 0; tables = []; mem = None; gc = 0;
          txn_seen = false }
      in
      List.iter (run_step h) before;
      check_against h (versions_above 0 ~upto:h.n) ~where:"before the crash";
      if crash then begin
        Wal.append wal (Log_record.commit_upto ~cohort:0 (lsn 1 h.n));
        Wal.force wal ignore;
        Sim.Engine.run engine;
        let held = List.sort_uniq compare (h.tables @ versions_above h.gc ~upto:h.n) in
        Store.crash store;
        ignore (Store.recover store);
        let pre = h.n in
        List.iter (run_step h) after;
        check_against h (held @ versions_above pre ~upto:h.n) ~where:"after the crash"
      end;
      true)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_single_key_txn_differential;
    QCheck_alcotest.to_alcotest prop_snapshot_visibility;
    Alcotest.test_case "snapshot readers block on unresolved intents" `Quick
      test_snapshot_blocked_by_intent;
    Alcotest.test_case "snapshot reads bypass the row cache" `Quick
      test_snapshot_reads_bypass_row_cache;
    Alcotest.test_case "a failed prepare aborts without a decision record" `Quick
      test_presumed_abort_writes_no_decision;
    Alcotest.test_case "checker catches G1c circular information flow" `Quick
      test_checker_catches_g1c;
    Alcotest.test_case "checker catches lost updates" `Quick test_checker_catches_lost_update;
    Alcotest.test_case "checker catches reads of uncommitted writers" `Quick
      test_checker_catches_phantom_writer;
    Alcotest.test_case "checker accepts a serial chain" `Quick
      test_checker_accepts_serial_chain;
    QCheck_alcotest.to_alcotest prop_lazy_chains_match_interval_rule;
  ]
