(* Unit tests for the core library's pure components: partitioning, the
   commit queue, and protocol messages. *)

open Spinnaker
module Lsn = Storage.Lsn

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let lsn e s = Lsn.make ~epoch:e ~seq:s

(* --- partition --------------------------------------------------------------- *)

let part ?(nodes = 10) ?(replication = 3) ?(key_space = 100_000) () =
  Partition.create ~nodes ~replication ~key_space

let test_partition_shape () =
  let p = part () in
  check_int "one range per node" 10 (Partition.ranges p);
  check_int "replication" 3 (Partition.replication p)

let test_partition_chained_declustering () =
  let p = part () in
  Alcotest.(check (list int)) "cohort 0" [ 0; 1; 2 ] (Partition.cohort p ~range:0);
  Alcotest.(check (list int)) "cohort 8 wraps" [ 8; 9; 0 ] (Partition.cohort p ~range:8);
  Alcotest.(check (list int)) "cohort 9 wraps" [ 9; 0; 1 ] (Partition.cohort p ~range:9)

let test_partition_node_ranges_inverse () =
  let p = part () in
  for node = 0 to 9 do
    let ranges = Partition.ranges_of_node p ~node in
    check_int "member of 3 cohorts" 3 (List.length ranges);
    List.iter
      (fun r ->
        check_bool "cohort contains node" true (List.mem node (Partition.cohort p ~range:r)))
      ranges
  done

let test_partition_bounds_cover_space () =
  let p = part () in
  let lo0, _ = Partition.range_bounds p ~range:0 in
  let _, hi9 = Partition.range_bounds p ~range:9 in
  Alcotest.(check string) "starts at 0" (Partition.key_of_int p 0) lo0;
  Alcotest.(check string) "ends at key_space" "100000" hi9

let prop_route_within_cohorted_range =
  QCheck.Test.make ~name:"partition: every key routes to a valid range" ~count:500
    (QCheck.int_bound 99_999) (fun k ->
      let p = part () in
      let r = Partition.route p (Partition.key_of_int p k) in
      r >= 0 && r < 10 && List.length (Partition.cohort p ~range:r) = 3)

let prop_route_respects_bounds =
  QCheck.Test.make ~name:"partition: routed range's bounds contain the key" ~count:500
    (QCheck.int_bound 99_999) (fun k ->
      let p = part () in
      let key = Partition.key_of_int p k in
      let r = Partition.route p key in
      let lo, hi = Partition.range_bounds p ~range:r in
      String.compare lo key <= 0 && String.compare key hi < 0)

let prop_key_encoding_order_preserving =
  QCheck.Test.make ~name:"partition: key encoding preserves numeric order" ~count:300
    QCheck.(pair (int_bound 99_999) (int_bound 99_999))
    (fun (a, b) ->
      let p = part () in
      compare a b = compare (Partition.key_of_int p a) (Partition.key_of_int p b))

(* --- commit queue -------------------------------------------------------------- *)

let add q ~l () =
  Commit_queue.add q ~lsn:l
    ~op:(Storage.Log_record.Put { key = "k"; col = "c"; value = "v"; version = l.Lsn.seq })
    ~timestamp:0 ()

let test_queue_commit_order_and_quorum () =
  let q = Commit_queue.create () in
  add q ~l:(lsn 1 1) ();
  add q ~l:(lsn 1 2) ();
  add q ~l:(lsn 1 3) ();
  (* Nothing commits unforced. *)
  Commit_queue.add_ack q ~from:7 ~upto:(lsn 1 3);
  check_int "unforced" 0 (List.length (Commit_queue.pop_committable q ~acks_needed:1));
  Commit_queue.mark_forced_upto q (lsn 1 3);
  let committed = Commit_queue.pop_committable q ~acks_needed:1 in
  check_int "all commit in order" 3 (List.length committed);
  check_bool "ascending" true
    (List.for_all2
       (fun (a : Commit_queue.entry) s -> Lsn.equal a.lsn (lsn 1 s))
       committed [ 1; 2; 3 ])

let test_queue_commit_stops_at_gap () =
  let q = Commit_queue.create () in
  add q ~l:(lsn 1 1) ();
  add q ~l:(lsn 1 2) ();
  Commit_queue.mark_forced_upto q (lsn 1 2);
  (* Only the second entry is acked: commit order must stall at entry 1. *)
  let e2_only = Commit_queue.create () in
  ignore e2_only;
  Commit_queue.add_ack q ~from:9 ~upto:(lsn 1 2);
  (* ack covers both here; emulate a gap instead via acks_needed=2 on entry 1 *)
  let q2 = Commit_queue.create () in
  add q2 ~l:(lsn 1 1) ();
  add q2 ~l:(lsn 1 2) ();
  Commit_queue.mark_forced_upto q2 (lsn 1 2);
  (* Hand-mark only entry 2 as acked. *)
  List.iter
    (fun (e : Commit_queue.entry) -> if Lsn.equal e.lsn (lsn 1 2) then e.ackers <- [ 5 ])
    (Commit_queue.to_list q2);
  check_int "gap blocks commit" 0 (List.length (Commit_queue.pop_committable q2 ~acks_needed:1));
  check_int "entries retained" 2 (Commit_queue.length q2)

let test_queue_duplicate_acks_counted_once () =
  let q = Commit_queue.create () in
  add q ~l:(lsn 1 1) ();
  Commit_queue.mark_forced_upto q (lsn 1 1);
  Commit_queue.add_ack q ~from:3 ~upto:(lsn 1 1);
  Commit_queue.add_ack q ~from:3 ~upto:(lsn 1 1);
  check_int "one acker twice is not quorum of 2" 0
    (List.length (Commit_queue.pop_committable q ~acks_needed:2));
  Commit_queue.add_ack q ~from:4 ~upto:(lsn 1 1);
  check_int "two distinct ackers" 1 (List.length (Commit_queue.pop_committable q ~acks_needed:2))

let test_queue_pop_upto () =
  let q = Commit_queue.create () in
  List.iter (fun s -> add q ~l:(lsn 1 s) ()) [ 1; 2; 3; 4 ];
  let popped = Commit_queue.pop_upto q (lsn 1 2) in
  check_int "popped prefix" 2 (List.length popped);
  check_int "rest stays" 2 (Commit_queue.length q)

let test_queue_drop_above () =
  let q = Commit_queue.create () in
  List.iter (fun s -> add q ~l:(lsn 1 s) ()) [ 1; 2; 3; 4 ];
  let dropped = Commit_queue.drop_above q (lsn 1 2) in
  check_int "dropped suffix" 2 (List.length dropped);
  check_int "prefix stays" 2 (Commit_queue.length q)

let test_queue_latest_version_overlay () =
  let q = Commit_queue.create () in
  Commit_queue.add q ~lsn:(lsn 1 1)
    ~op:(Storage.Log_record.Put { key = "k"; col = "c"; value = "a"; version = 5 })
    ~timestamp:0 ();
  Commit_queue.add q ~lsn:(lsn 1 2)
    ~op:(Storage.Log_record.Put { key = "k"; col = "c"; value = "b"; version = 6 })
    ~timestamp:0 ();
  Alcotest.(check (option int)) "newest pending version" (Some 6)
    (Commit_queue.latest_version_for q ("k", "c"));
  Alcotest.(check (option int)) "absent coord" None
    (Commit_queue.latest_version_for q ("other", "c"))

let prop_queue_commits_exactly_once =
  QCheck.Test.make ~name:"commit queue: every entry commits exactly once" ~count:100
    QCheck.(int_range 1 50)
    (fun n ->
      let q = Commit_queue.create () in
      for s = 1 to n do
        add q ~l:(lsn 1 s) ()
      done;
      Commit_queue.mark_forced_upto q (lsn 1 n);
      Commit_queue.add_ack q ~from:1 ~upto:(lsn 1 n);
      let first = Commit_queue.pop_committable q ~acks_needed:1 in
      let second = Commit_queue.pop_committable q ~acks_needed:1 in
      List.length first = n && second = [] && Commit_queue.is_empty q)

(* Model-based check: a queue driven by a random program must agree with a
   naive LSN-sorted list on every pop, every entry's forced flag and ackers,
   and on [contiguous_forced_upto], which the model answers by walking the
   whole list from its head. LSNs span two epochs so that re-adds below
   existing entries (the takeover rebuild) and below an ack point occur. *)
type queue_op =
  | QAdd of Lsn.t
  | QForced of Lsn.t
  | QForcedUpto of Lsn.t
  | QAck of int * Lsn.t
  | QCommittable of int
  | QContiguous of int * Lsn.t
  | QUpto of Lsn.t
  | QDropAbove of Lsn.t
  | QFrontier of int

let arb_queue_ops =
  let lsn_gen = QCheck.Gen.(map2 (fun e s -> lsn e s) (int_range 1 2) (int_range 1 24)) in
  let op_gen =
    QCheck.Gen.(
      frequency
        [
          (8, map (fun l -> QAdd l) lsn_gen);
          (3, map (fun l -> QForced l) lsn_gen);
          (2, map (fun l -> QForcedUpto l) lsn_gen);
          (3, map2 (fun f l -> QAck (f, l)) (int_range 1 2) lsn_gen);
          (1, map (fun k -> QCommittable k) (int_range 1 2));
          (1, map2 (fun d l -> QContiguous (d, l)) (int_range (-1) 1) lsn_gen);
          (1, map (fun l -> QUpto l) lsn_gen);
          (1, map (fun l -> QDropAbove l) lsn_gen);
          (2, map (fun d -> QFrontier d) (int_range (-1) 1));
        ])
  in
  let show = Lsn.to_string in
  QCheck.make
    ~print:(fun l ->
      String.concat ";"
        (List.map
           (function
             | QAdd l -> "add " ^ show l
             | QForced l -> "forced " ^ show l
             | QForcedUpto l -> "forced_upto " ^ show l
             | QAck (f, l) -> Printf.sprintf "ack %d %s" f (show l)
             | QCommittable k -> Printf.sprintf "committable %d" k
             | QContiguous (d, l) -> Printf.sprintf "contiguous %+d %s" d (show l)
             | QUpto l -> "upto " ^ show l
             | QDropAbove l -> "drop_above " ^ show l
             | QFrontier d -> Printf.sprintf "frontier %+d" d)
           l))
    QCheck.Gen.(list_size (int_range 1 300) op_gen)

type model_entry = { m_lsn : Lsn.t; m_forced : bool; m_ackers : int list }

let prop_queue_matches_model =
  QCheck.Test.make ~name:"commit queue: model equivalence (pops, forced, acks, frontier)"
    ~count:300 arb_queue_ops (fun ops ->
      let q = Commit_queue.create () in
      (* LSN-sorted, with the model's own view of each entry *)
      let model = ref [] in
      let update p f = model := List.map (fun e -> if p e then f e else e) !model in
      let take p =
        let rec go acc = function
          | e :: rest when p acc e -> go (e :: acc) rest
          | rest ->
            model := rest;
            List.rev acc
        in
        go [] !model
      in
      (* [from] just below the head's seq, shifted by [d]: the chain walks
         start at the head, so this is where they have something to find *)
      let from_near d =
        match !model with
        | e :: _ -> lsn 0 (e.m_lsn.Lsn.seq - 1 + d)
        | [] -> lsn 0 (d + 1)
      in
      let chain_from from =
        let rec go prev best = function
          | e :: rest when e.m_lsn.Lsn.seq = prev + 1 && e.m_forced ->
            go e.m_lsn.Lsn.seq (Some e.m_lsn) rest
          | _ -> best
        in
        go from.Lsn.seq None !model
      in
      let lsns l = List.map (fun (e : Commit_queue.entry) -> e.lsn) l in
      let same_pop got want = List.equal Lsn.equal (lsns got) (List.map (fun e -> e.m_lsn) want) in
      let frontier_agrees d =
        let from = from_near d in
        Option.equal Lsn.equal (Commit_queue.contiguous_forced_upto q ~from) (chain_from from)
      in
      let step = function
        | QAdd l ->
          (* The cohort adds an LSN only when it is not already queued. *)
          if not (Commit_queue.mem q l) then begin
            add q ~l ();
            let e = { m_lsn = l; m_forced = false; m_ackers = [] } in
            let below, above = List.partition (fun e -> Lsn.(e.m_lsn < l)) !model in
            model := below @ (e :: above)
          end;
          true
        | QForced l ->
          Commit_queue.mark_forced q l;
          update (fun e -> Lsn.equal e.m_lsn l) (fun e -> { e with m_forced = true });
          true
        | QForcedUpto l ->
          Commit_queue.mark_forced_upto q l;
          update (fun e -> Lsn.(e.m_lsn <= l)) (fun e -> { e with m_forced = true });
          true
        | QAck (f, l) ->
          Commit_queue.add_ack q ~from:f ~upto:l;
          update
            (fun e -> Lsn.(e.m_lsn <= l) && not (List.mem f e.m_ackers))
            (fun e -> { e with m_ackers = f :: e.m_ackers });
          true
        | QCommittable k ->
          let got = Commit_queue.pop_committable q ~acks_needed:k in
          same_pop got (take (fun _ e -> e.m_forced && List.length e.m_ackers >= k))
        | QContiguous (d, upto) ->
          let from = from_near d in
          let got = Commit_queue.pop_contiguous q ~from ~upto in
          let want =
            take (fun acc e ->
                let prev = match acc with p :: _ -> p.m_lsn.Lsn.seq | [] -> from.Lsn.seq in
                Lsn.(e.m_lsn <= upto) && e.m_lsn.Lsn.seq = prev + 1)
          in
          same_pop got want
        | QUpto l -> same_pop (Commit_queue.pop_upto q l) (take (fun _ e -> Lsn.(e.m_lsn <= l)))
        | QDropAbove l ->
          let got = Commit_queue.drop_above q l in
          let keep, want = List.partition (fun e -> Lsn.(e.m_lsn <= l)) !model in
          model := keep;
          same_pop got want
        | QFrontier d -> frontier_agrees d
      in
      let state_agrees () =
        let view (e : Commit_queue.entry) =
          (e.lsn, e.forced, List.sort Int.compare e.ackers)
        in
        let want = List.map (fun e -> (e.m_lsn, e.m_forced, List.sort Int.compare e.m_ackers)) !model in
        List.map view (Commit_queue.to_list q) = want
      in
      List.for_all (fun op -> step op && state_agrees () && frontier_agrees 0) ops)

(* --- messages -------------------------------------------------------------------- *)

let test_message_classification () =
  check_bool "get is read" false
    (Message.is_write (Message.Get { key = "k"; col = "c"; consistent = true; token = Lsn.zero }));
  check_bool "put is write" true (Message.is_write (Message.Put { key = "k"; col = "c"; value = "v" }));
  check_bool "cond delete is write" true
    (Message.is_write (Message.Conditional_delete { key = "k"; col = "c"; expected = 1 }))

let test_message_new_ops_classified () =
  check_bool "scan is read" false
    (Message.is_write
       (Message.Scan
          { start_key = "a"; end_key = "b"; limit = 10; consistent = true; token = Lsn.zero }));
  check_bool "txn is write" true (Message.is_write (Message.Txn_put { rows = [ ("k", "c", "v") ] }));
  Alcotest.(check string)
    "txn routes by first key" "k"
    (Message.key_of_op (Message.Txn_put { rows = [ ("k", "c", "v"); ("k2", "c", "v") ] }));
  Alcotest.(check string)
    "scan routes by start key" "s"
    (Message.key_of_op
       (Message.Scan
          { start_key = "s"; end_key = "t"; limit = 1; consistent = false; token = Lsn.zero }))

let test_batch_op_helpers () =
  let batch =
    Storage.Log_record.Batch
      [
        Storage.Log_record.Put { key = "a"; col = "c"; value = "1"; version = 1 };
        Storage.Log_record.Delete { key = "b"; col = "c"; version = 2 };
      ]
  in
  check_int "flatten" 2 (List.length (Storage.Log_record.flatten batch));
  Alcotest.(check (pair string string)) "coord is first" ("a", "c") (Storage.Log_record.op_coord batch);
  let cells = Storage.Log_record.cells_of_write batch ~lsn:(lsn 1 9) ~timestamp:7 in
  check_int "two cells" 2 (List.length cells);
  check_bool "delete is tombstone" true
    (match cells with [ _; (_, cell) ] -> Storage.Row.is_tombstone cell | _ -> false);
  check_bool "shared lsn" true
    (List.for_all (fun (_, (c : Storage.Row.cell)) -> Lsn.equal c.lsn (lsn 1 9)) cells)

let test_message_sizes_scale () =
  let small = Message.size (Message.Request { client = 1; request_id = 1; op = Message.Put { key = "k"; col = "c"; value = "x" } }) in
  let big =
    Message.size
      (Message.Request
         { client = 1; request_id = 1; op = Message.Put { key = "k"; col = "c"; value = String.make 4096 'x' } })
  in
  check_bool "4KB put is ~4KB bigger" true (big - small > 4000)

let suite =
  [
    Alcotest.test_case "partition: shape" `Quick test_partition_shape;
    Alcotest.test_case "partition: chained declustering (Fig 2)" `Quick
      test_partition_chained_declustering;
    Alcotest.test_case "partition: node<->range inverse" `Quick test_partition_node_ranges_inverse;
    Alcotest.test_case "partition: bounds cover key space" `Quick test_partition_bounds_cover_space;
    QCheck_alcotest.to_alcotest prop_route_within_cohorted_range;
    QCheck_alcotest.to_alcotest prop_route_respects_bounds;
    QCheck_alcotest.to_alcotest prop_key_encoding_order_preserving;
    Alcotest.test_case "queue: quorum + order" `Quick test_queue_commit_order_and_quorum;
    Alcotest.test_case "queue: gap blocks commit" `Quick test_queue_commit_stops_at_gap;
    Alcotest.test_case "queue: duplicate acks" `Quick test_queue_duplicate_acks_counted_once;
    Alcotest.test_case "queue: pop_upto" `Quick test_queue_pop_upto;
    Alcotest.test_case "queue: drop_above" `Quick test_queue_drop_above;
    Alcotest.test_case "queue: version overlay" `Quick test_queue_latest_version_overlay;
    QCheck_alcotest.to_alcotest prop_queue_commits_exactly_once;
    Alcotest.test_case "message: read/write classification" `Quick test_message_classification;
    Alcotest.test_case "message: size accounting" `Quick test_message_sizes_scale;
    Alcotest.test_case "message: txn/scan classification" `Quick test_message_new_ops_classified;
    Alcotest.test_case "log record: batch helpers" `Quick test_batch_op_helpers;
    QCheck_alcotest.to_alcotest prop_queue_matches_model;
  ]
