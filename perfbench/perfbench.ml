(* One measured repetition of one benchmark workload.

   Usage: perfbench.exe WORKLOAD --seed N [--trace] [--slice-ms MS]
          perfbench.exe WORKLOAD --seed N --setup-probe MS

   WORKLOAD is put, read, txn or failover (see README.md). The program boots
   a simulated Spinnaker cluster, drives it with closed-loop clients for a
   fixed simulated span, checks the outputs, and prints one JSON object:

   - "sim": client-visible results in simulated time; a pure function of the
     seed, so repeats of one seed must agree exactly;
   - "counts": per-layer counts and simulated-time breakdowns, equally
     deterministic;
   - "cost": what the simulator cost in wall-clock time and memory;
   - "traced": critical-path attribution and the benchmark's own wall-clock
     spans around client calls (only with --trace);
   - "failures": every failed output check (empty when the run is correct).

   With --setup-probe it only times the set-up (boot plus preload) again and
   again for MS milliseconds of wall time and prints the times.

   perfbench/run.py repeats this program and reports medians. Every layer
   is observed from outside, through the library's public interfaces. The
   simulated environment (network, disks, timers) always uses the engine's
   default seed; --seed drives only the workload's keys, operation mix and
   think times. Between slices of simulated time the program samples the
   engine and polls leadership; the slice length cannot change a run (the
   self-test checks this). *)

open Spinnaker
module H = Sim.Metrics.Histogram
module T = Sim.Sim_time

let now_ns () = Monotonic_clock.now ()
let elapsed_ns t0 = Int64.to_float (Int64.sub (now_ns ()) t0)
let column = "c"
let sec = T.sec
let ms = T.ms
let pct h p = H.percentile h p /. 1000.0
let ratio a b = if b = 0.0 then 0.0 else a /. b
let ratio_i a b = ratio (float_of_int a) (float_of_int b)

(* --- write ledger: what a read-back may legitimately return ------------- *)

(* Values come from a small pool of distinct payloads, so a read-back can
   name the write it observed without allocating a value per request. *)
let pool_size = 64

type entry = {
  mutable serial : int;  (** writes invoked on the key *)
  mutable last : int;  (** pool index of the newest invoked write *)
  mutable acked : bool;  (** the newest invoked write was acknowledged *)
  mutable any_acked : bool;  (** some write of the key was acknowledged *)
  mutable inflight : int;
  mutable ambiguous : bool;
      (** writes overlapped or one failed: any written value may be current *)
  mutable written : int list;  (** pool indices ever written to the key *)
}

type ledger = { pool : string array; keys : (string, entry) Hashtbl.t; mutable next : int }

let ledger value_bytes =
  let pool =
    Array.init pool_size (fun i ->
        let tag = Printf.sprintf "v%02d:" i in
        tag ^ String.make (max 0 (value_bytes - String.length tag)) 'x')
  in
  { pool; keys = Hashtbl.create 4096; next = 0 }

(* Register a write of [key]; returns the value to send and the completion
   hook to call with the outcome. *)
let ledger_write l key =
  let e =
    match Hashtbl.find_opt l.keys key with
    | Some e -> e
    | None ->
      let e =
        {
          serial = 0;
          last = 0;
          acked = false;
          any_acked = false;
          inflight = 0;
          ambiguous = false;
          written = [];
        }
      in
      Hashtbl.add l.keys key e;
      e
  in
  let idx = l.next mod pool_size in
  l.next <- l.next + 1;
  if e.inflight > 0 then e.ambiguous <- true;
  e.serial <- e.serial + 1;
  e.last <- idx;
  e.acked <- false;
  e.inflight <- e.inflight + 1;
  if not (List.mem idx e.written) then e.written <- idx :: e.written;
  let serial = e.serial in
  ( l.pool.(idx),
    fun ok ->
      e.inflight <- e.inflight - 1;
      if not ok then e.ambiguous <- true
      else begin
        e.any_acked <- true;
        if serial = e.serial then e.acked <- true
      end )

(* A read-back of [key] after every write completed: an acknowledged newest
   write with no overlap must be exactly what is read; otherwise the value
   must be one that was written, or absent if no write was acknowledged (a
   failed write may never have been applied). *)
let ledger_check l key got =
  match Hashtbl.find_opt l.keys key with
  | None -> None
  | Some e ->
    let is i = match got with Some v -> String.equal v l.pool.(i) | None -> false in
    if e.acked && not e.ambiguous then
      if is e.last then None
      else Some (Printf.sprintf "%s: acknowledged write v%02d lost" key e.last)
    else if List.exists is e.written then None
    else if got = None && not e.any_acked then None
    else Some (Printf.sprintf "%s: read a value that was never written" key)

let acked_keys l =
  Hashtbl.fold (fun k e acc -> if e.acked && not e.ambiguous then k :: acc else acc) l.keys []
  |> List.sort String.compare |> Array.of_list

(* --- the run: clients, window, counters --------------------------------- *)

type run = {
  engine : Sim.Engine.t;
  cluster : Cluster.t;
  traced : bool;
  slice : T.span;
  rng : Sim.Rng.t;  (** the workload stream: keys, operation mix, think times *)
  mutable measure_from : T.t;
  mutable stop : T.t;
  lat : H.t;
  read_lat : H.t;
  write_lat : H.t;
  mutable attempted : int;  (** operations issued inside the window *)
  mutable failed : int;  (** of those, the ones that did not succeed *)
  mutable completed : int;  (** successful completions inside the window *)
  mutable ops : int;  (** every completion during the run (per-op ratios) *)
  mutable writes_acked : int;
  mutable outstanding : int;
  mutable clients : Client.t list;
  (* benchmark spans around client calls (traced runs) *)
  mutable in_call : bool;
  mutable call_ns : float;
  mutable calls : int;
  (* the key stream, digested, and the keys replayed through Store.get *)
  digest : Buffer.t;
  mutable replay : string list;
  mutable replay_n : int;
  (* engine and leadership sampling between slices *)
  mutable fine : bool;  (** poll after every event, not only between slices *)
  mutable markers : int;  (** slice-end marker events scheduled for [fine] *)
  mutable pending_sum : float;
  mutable pending_n : int;
  leaders : int option array;
  mutable elections : int;
}

let digest_keys = 4096
let replay_keys = 20_000

let note_key r key =
  if r.replay_n < replay_keys then begin
    if r.replay_n < digest_keys then begin
      Buffer.add_string r.digest key;
      Buffer.add_char r.digest ' '
    end;
    r.replay <- key :: r.replay;
    r.replay_n <- r.replay_n + 1
  end

let new_client r =
  let c = Cluster.new_client r.cluster in
  r.clients <- c :: r.clients;
  c

(* Every call into the client library goes through here; in traced runs the
   benchmark times it (the outermost call only, so a callback that issues
   the next request synchronously is not counted twice). *)
let call r f =
  if r.traced && not r.in_call then begin
    r.in_call <- true;
    let t0 = now_ns () in
    f ();
    r.call_ns <- r.call_ns +. elapsed_ns t0;
    r.calls <- r.calls + 1;
    r.in_call <- false
  end
  else f ()

(* One closed-loop client: [issue k] sends the next operation and calls
   [k ~read ok] when it completes; the client then thinks for [think ()]
   and issues again, until the window closes. Operations issued inside the
   window are attempted; their latency is recorded when they succeed. *)
let client_loop ?(think = fun () -> T.span_zero) r issue =
  let rec next () =
    let t0 = Sim.Engine.now r.engine in
    if T.(t0 < r.stop) then begin
      let counted = T.(t0 >= r.measure_from) in
      if counted then r.attempted <- r.attempted + 1;
      r.outstanding <- r.outstanding + 1;
      call r (fun () ->
          issue (fun ~read ok ->
              let t1 = Sim.Engine.now r.engine in
              r.outstanding <- r.outstanding - 1;
              r.ops <- r.ops + 1;
              if ok && not read then r.writes_acked <- r.writes_acked + 1;
              if ok && T.(t1 >= r.measure_from) && T.(t1 <= r.stop) then
                r.completed <- r.completed + 1;
              if counted then
                if ok then begin
                  let us = float_of_int (T.to_us (T.diff t1 t0)) in
                  H.record r.lat us;
                  H.record (if read then r.read_lat else r.write_lat) us
                end
                else r.failed <- r.failed + 1;
              let pause = think () in
              if T.span_compare pause T.span_zero > 0 then
                ignore (Sim.Engine.schedule r.engine ~after:pause next)
              else next ()))
    end
  in
  (* Stagger the first requests so clients do not start in lock step. *)
  ignore (Sim.Engine.schedule r.engine ~after:(T.us (Sim.Rng.int r.rng 10_000)) next)

let put ledger client key k =
  let value, fin = ledger_write ledger key in
  Client.put client key column ~value (fun res ->
      let ok = Result.is_ok res in
      fin ok;
      k ~read:false ok)

let get client ~consistent key k =
  Client.get client ~consistent key column (fun res -> k ~read:true (Result.is_ok res))

(* Advance simulated time to [until] in slices, sampling the pending-event
   count and running [poll] between slices. [Engine.run_until] only pops
   events that are already due, so slicing adds none. While [r.fine] is set,
   [poll] also runs after every event: a no-op marker event at the slice end
   tells the event-by-event loop where to stop. Markers change no other
   event's order; they are counted in [r.markers] and left out of the event
   counts. *)
let advance r ~poll until =
  while T.(Sim.Engine.now r.engine < until) do
    let next = T.min until (T.add (Sim.Engine.now r.engine) r.slice) in
    if r.fine then begin
      let reached = ref false in
      ignore (Sim.Engine.schedule_at r.engine next (fun () -> reached := true));
      r.markers <- r.markers + 1;
      while r.fine && (not !reached) && Sim.Engine.step r.engine do
        poll ()
      done
    end;
    Sim.Engine.run_until r.engine next;
    r.pending_sum <- r.pending_sum +. float_of_int (Sim.Engine.pending r.engine);
    r.pending_n <- r.pending_n + 1;
    Array.iteri
      (fun range prev ->
        let cur = Cluster.leader_of r.cluster ~range in
        (match (prev, cur) with
        | Some a, Some b when a <> b -> r.elections <- r.elections + 1
        | _ -> ());
        if cur <> None then r.leaders.(range) <- cur)
      r.leaders;
    poll ()
  done

(* Drive the engine until [finished ()] or [limit] of simulated time. *)
let settle r ~poll ~limit finished =
  let deadline = T.add (Sim.Engine.now r.engine) limit in
  while (not (finished ())) && T.(Sim.Engine.now r.engine < deadline) do
    advance r ~poll (T.min deadline (T.add (Sim.Engine.now r.engine) (ms 50)))
  done;
  finished ()

(* Strong reads of [keys] through fresh clients, 32 at a time, each checked
   against the ledger. Runs after the measured window. *)
let read_back r ledger keys =
  let failures = ref [] in
  let remaining = ref (Array.length keys) in
  let cursor = ref 0 in
  for _ = 1 to 32 do
    let client = Cluster.new_client r.cluster in
    let rec next () =
      if !cursor < Array.length keys then begin
        let key = keys.(!cursor) in
        incr cursor;
        Client.get client ~consistent:true key column (fun res ->
            decr remaining;
            (match res with
            | Ok { Client.value; _ } -> (
              match ledger_check ledger key value with
              | None -> ()
              | Some f -> failures := f :: !failures)
            | Error e ->
              failures := Format.asprintf "%s: read-back %a" key Client.pp_error e :: !failures);
            next ())
      end
    in
    next ()
  done;
  if not (settle r ~poll:ignore ~limit:(sec 120) (fun () -> !remaining = 0)) then
    failures := Printf.sprintf "read-back: %d reads never completed" !remaining :: !failures;
  List.rev !failures

let sample_keys r keys n =
  let keys = Array.copy keys in
  Sim.Rng.shuffle r.rng keys;
  Array.sub keys 0 (min n (Array.length keys))

(* --- workloads ---------------------------------------------------------- *)

type hooks = {
  preload : unit -> unit;  (** part of set-up *)
  clients : unit -> unit;  (** spawn the closed-loop clients *)
  milestones : (T.span * (unit -> unit)) list;  (** offsets from the window start *)
  poll : unit -> unit;  (** between slices *)
  check : unit -> string list;  (** after the run drained; may drive the engine *)
  extra : unit -> (string * float) list;  (** workload-specific counts *)
}

type spec = {
  config : Config.t;
  warmup : T.span;
  measure : T.span;
  trace_capacity : int;  (** ring size for the traced run: holds the whole window *)
  drive : run -> hooks;
}

let no_extra () = []

(* put: the paper's fig 8/9 write load. 256 writers walk consecutive keys
   (stride 257 from seeded offsets) with 4 KB values over the default
   10-node, 3-way, magnetic-log, group-commit cluster. *)
let put_spec =
  let config = Config.default in
  {
    config;
    warmup = sec 1;
    measure = sec 12;
    trace_capacity = 1 lsl 21;
    drive =
      (fun r ->
        let ledger = ledger config.Config.value_bytes in
        {
          preload = ignore;
          clients =
            (fun () ->
              let key_space = config.Config.key_space in
              let slot = key_space / 256 in
              let partition = Cluster.partition r.cluster in
              for thread = 0 to 255 do
                let client = new_client r in
                let cursor = ref ((thread * slot) + Sim.Rng.int r.rng slot) in
                client_loop r (fun k ->
                    let key = Partition.key_of_int partition (!cursor mod key_space) in
                    cursor := !cursor + 257;
                    note_key r key;
                    put ledger client key k)
              done);
          milestones = [];
          poll = ignore;
          check = (fun () -> read_back r ledger (sample_keys r (acked_keys ledger) 1000));
          extra = no_extra;
        });
  }

(* read: a multi-tier LSM of 20k 1 KB rows (64 KB flush threshold, 256-row
   cache per store) under 128 clients, half leased strong readers and half
   timeline readers carrying read-your-writes tokens. 90 % of keys come from
   a 512-key hot set strided over every range, 10 % are uniform; 10 % of
   operations are writes. *)
let read_spec =
  let config =
    {
      Config.default with
      Config.key_space = 20_000;
      flush_bytes = 64 * 1024;
      value_bytes = 1024;
      row_cache_capacity = 256;
      commit_period = ms 100;
      piggyback_commits = true;
    }
  in
  {
    config;
    warmup = ms 500;
    measure = sec 3;
    trace_capacity = 1 lsl 21;
    drive =
      (fun r ->
        let ledger = ledger config.Config.value_bytes in
        let partition = Cluster.partition r.cluster in
        {
          preload =
            (fun () ->
              (* Every key once, 128 writers at a time. *)
              let key_space = config.Config.key_space in
              let cursor = ref 0 and remaining = ref key_space in
              for _ = 1 to 128 do
                let client = Cluster.new_client r.cluster in
                let rec next () =
                  if !cursor < key_space then begin
                    let key = Partition.key_of_int partition !cursor in
                    incr cursor;
                    put ledger client key (fun ~read:_ _ ->
                        decr remaining;
                        next ())
                  end
                in
                next ()
              done;
              if not (settle r ~poll:ignore ~limit:(sec 300) (fun () -> !remaining = 0)) then
                failwith "read: preload did not finish");
          clients =
            (fun () ->
              let mode = Workload.Generator.Hotspot { fraction_hot = 0.9; hot_keys = 512 } in
              for thread = 0 to 127 do
                let client = new_client r in
                let consistent = thread < 64 in
                let rng = Sim.Rng.split r.rng in
                let gen =
                  Workload.Generator.create ~rng ~key_space:config.Config.key_space ~mode ~thread
                in
                client_loop r (fun k ->
                    let key = Workload.Generator.next_key gen in
                    if Sim.Rng.float rng 1.0 < 0.1 then put ledger client key k
                    else begin
                      note_key r key;
                      get client ~consistent key k
                    end)
              done);
          milestones = [];
          poll = ignore;
          check = (fun () -> read_back r ledger (sample_keys r (acked_keys ledger) 1000));
          extra = no_extra;
        });
  }

(* txn: bank transfers on 5 SSD-logged nodes. 8 tellers move 1-5 units
   between two of 16 accounts strided across every range, thinking 5-25 ms
   between transfers; an aborted transfer is retried (after the same think
   time) until it commits, so its latency covers every attempt. Snapshot
   audits run every 700 ms. *)
let txn_spec =
  let config = { Config.default with Config.nodes = 5; disk = Sim.Disk_model.Ssd } in
  {
    config;
    warmup = sec 2;
    measure = sec 240;
    trace_capacity = 1 lsl 22;
    drive =
      (fun r ->
        let accounts = 16 and initial = 100 and max_attempts = 50 in
        let bank = "b" in
        let partition = Cluster.partition r.cluster in
        let stride = config.Config.key_space / accounts in
        let keys = Array.init accounts (fun i -> Partition.key_of_int partition (i * stride)) in
        let history = Workload.History.create () in
        let violations = ref [] in
        let aborts = ref 0 and commits = ref 0 in
        let indeterminate = ref [] in
        let decode = function
          | None -> (None, initial)
          | Some v -> (
            match String.index_opt v '|' with
            | None -> (None, int_of_string v)
            | Some i ->
              ( Some (String.sub v 0 i),
                int_of_string (String.sub v (i + 1) (String.length v - i - 1)) ))
        in
        let audit_client = Cluster.new_client r.cluster in
        let audit_mgr = Txn.manager ~engine:r.engine ~config audit_client in
        let audits = ref 0 in
        let audit k =
          incr audits;
          let tag = Printf.sprintf "audit.%d" !audits in
          let seen = ref None in
          Txn.run audit_mgr
            ~reads:(Array.to_list (Array.map (fun key -> (key, bank)) keys))
            ~compute:(fun values ->
              seen := Some (List.map (fun (key, _, v, _) -> (key, decode v)) values);
              [])
            (fun outcome ->
              (match (outcome, !seen) with
              | Txn.Committed { ts }, Some decoded ->
                let total = List.fold_left (fun acc (_, (_, b)) -> acc + b) 0 decoded in
                if total <> accounts * initial then
                  violations :=
                    Printf.sprintf "%s: balances total %d, expected %d" tag total
                      (accounts * initial)
                    :: !violations;
                Workload.History.record_txn history ~id:tag ~commit_ts:ts
                  ~reads:(List.map (fun (key, (from, _)) -> (key, from)) decoded)
                  ~writes:[]
              | _ -> ());
              k outcome)
        in
        let rec audit_loop () =
          if T.(Sim.Engine.now r.engine < r.stop) then
            audit (fun _ -> ignore (Sim.Engine.schedule r.engine ~after:(ms 700) audit_loop))
        in
        let teller i =
          let client = new_client r in
          let mgr = Txn.manager ~engine:r.engine ~config client in
          let rng = Sim.Rng.split r.rng in
          let think () = ms (5 + Sim.Rng.int rng 20) in
          let n = ref 0 in
          client_loop r ~think (fun k ->
              incr n;
              let a, b = Workload.Generator.account_pair rng ~accounts in
              let ka = keys.(a) and kb = keys.(b) in
              let amount = 1 + Sim.Rng.int rng 5 in
              note_key r ka;
              note_key r kb;
              let rec attempt tries =
                let tag = Printf.sprintf "x%d.%d.%d" i !n tries in
                let observed = ref [] in
                call r (fun () ->
                    Txn.run mgr
                      ~reads:[ (ka, bank); (kb, bank) ]
                      ~compute:(fun values ->
                        let decoded = List.map (fun (key, _, v, _) -> (key, decode v)) values in
                        observed := List.map (fun (key, (from, _)) -> (key, from)) decoded;
                        let balance key = snd (List.assoc key decoded) in
                        let enc bal = Some (Printf.sprintf "%s|%d" tag bal) in
                        [
                          (ka, bank, enc (balance ka - amount));
                          (kb, bank, enc (balance kb + amount));
                        ])
                      (function
                        | Txn.Committed { ts } ->
                          incr commits;
                          Workload.History.record_txn history ~id:tag ~commit_ts:ts
                            ~reads:!observed ~writes:[ ka; kb ];
                          k ~read:false true
                        | Txn.Aborted _ ->
                          incr aborts;
                          if tries >= max_attempts then k ~read:false false
                          else
                            ignore
                              (Sim.Engine.schedule r.engine ~after:(think ()) (fun () ->
                                   attempt (tries + 1)))
                        | Txn.Indeterminate { txn } ->
                          indeterminate := (txn, ka, tag, !observed, [ ka; kb ]) :: !indeterminate;
                          k ~read:false false))
              in
              attempt 1)
        in
        {
          preload = ignore;
          clients =
            (fun () ->
              for i = 0 to 7 do
                teller i
              done;
              ignore (Sim.Engine.schedule r.engine ~after:(ms 700) audit_loop));
          milestones = [];
          poll = ignore;
          check =
            (fun () ->
              (* Presumed-abort post-mortem for transfers whose fate was
                 unknown, then a final audit and the serializability check. *)
              let unresolved = ref 0 and pending = ref (List.length !indeterminate) in
              List.iter
                (fun (txn, anchor, id, reads, writes) ->
                  Client.txn_status audit_client ~txn ~anchor (fun res ->
                      decr pending;
                      match res with
                      | Ok (true, ts) ->
                        Workload.History.record_txn history ~id ~commit_ts:ts ~reads ~writes
                      | Ok (false, _) -> ()
                      | Error _ -> incr unresolved))
                !indeterminate;
              ignore (settle r ~poll:ignore ~limit:(sec 30) (fun () -> !pending = 0));
              let final = ref None in
              audit (fun o -> final := Some o);
              ignore (settle r ~poll:ignore ~limit:(sec 30) (fun () -> !final <> None));
              let failures = ref (List.rev !violations) in
              (match !final with
              | Some (Txn.Committed _) -> ()
              | Some o ->
                failures := Format.asprintf "final audit: %a" Txn.pp_outcome o :: !failures
              | None -> failures := "final audit never completed" :: !failures);
              if !unresolved + !pending > 0 then
                failures :=
                  Printf.sprintf "%d transfers unresolved" (!unresolved + !pending) :: !failures;
              List.iter
                (fun v ->
                  failures :=
                    Format.asprintf "serializability: %a" Workload.History.pp_violation v
                    :: !failures)
                (Workload.History.check_serializable history);
              !failures);
          extra =
            (fun () ->
              [
                ("txn.aborts_per_commit", ratio_i !aborts !commits);
              ]);
        });
  }

(* failover: 64 clients, each operation a write with probability 0.6 and a
   strong read otherwise, on uniform keys over the default 10-node cluster.
   Two seconds into the window the leader of range 0 crashes; it restarts
   six seconds later. From the crash until every range it led has a new
   leader, and from the restart until it has caught up, leadership and
   catch-up are polled after every event, so their instants are exact. *)
let failover_spec =
  let config = Config.default in
  {
    config;
    warmup = sec 2;
    measure = sec 14;
    trace_capacity = 1 lsl 21;
    drive =
      (fun r ->
        let ledger = ledger config.Config.value_bytes in
        let partition = Cluster.partition r.cluster in
        let victim = ref (-1) and victim_ranges = ref [] in
        let crash_at = ref None and restart_at = ref None and caught_up_at = ref None in
        (* per range the victim led: when a new leader opened, and when that
           leader first acknowledged a write *)
        let elected = Hashtbl.create 8 and first_ack = Hashtbl.create 8 in
        let catchup_target = ref [] in
        let all_ranges tbl = List.for_all (Hashtbl.mem tbl) !victim_ranges in
        (* The largest per-range span from [a] to [b], in ms; None until
           every range has both instants. *)
        let max_span a b =
          List.fold_left
            (fun acc range ->
              match (acc, a range, Hashtbl.find_opt b range) with
              | Some m, Some a, Some b -> Some (Float.max m (T.to_ms_f (T.diff b a)))
              | _ -> None)
            (Some 0.0) !victim_ranges
        in
        let since_crash _ = !crash_at in
        let poll () =
          let now = Sim.Engine.now r.engine in
          if !crash_at <> None && not (all_ranges elected) then begin
            List.iter
              (fun range ->
                if not (Hashtbl.mem elected range) then
                  match Cluster.leader_of r.cluster ~range with
                  | Some l when l <> !victim -> Hashtbl.add elected range now
                  | _ -> ())
              !victim_ranges;
            if all_ranges elected then r.fine <- false
          end;
          if !restart_at <> None && !caught_up_at = None then begin
            let node = Cluster.node r.cluster !victim in
            if
              List.for_all
                (fun (range, target) ->
                  match Node.cohort node ~range with
                  | Some c -> (
                    match Cohort.role c with
                    | Cohort.Follower | Cohort.Leader -> Storage.Lsn.(Cohort.lst c >= target)
                    | Cohort.Offline | Cohort.Candidate -> false)
                  | None -> false)
                !catchup_target
            then begin
              caught_up_at := Some now;
              r.fine <- false
            end
          end
        in
        {
          preload = ignore;
          clients =
            (fun () ->
              for thread = 0 to 63 do
                let client = new_client r in
                let rng = Sim.Rng.split r.rng in
                let gen =
                  Workload.Generator.create ~rng ~key_space:config.Config.key_space
                    ~mode:Workload.Generator.Uniform_random ~thread
                in
                client_loop r (fun k ->
                    let key = Workload.Generator.next_key gen in
                    if Sim.Rng.float rng 1.0 < 0.6 then
                      put ledger client key (fun ~read ok ->
                          let range = Partition.route partition key in
                          (* [elected] holds [range] only once its new leader
                             opened, so a reply the crashed leader sent
                             before it died is not counted. *)
                          if ok && Hashtbl.mem elected range && not (Hashtbl.mem first_ack range)
                          then Hashtbl.add first_ack range (Sim.Engine.now r.engine);
                          k ~read ok)
                    else begin
                      note_key r key;
                      get client ~consistent:true key k
                    end)
              done);
          milestones =
            [
              ( sec 2,
                fun () ->
                  let v =
                    match Cluster.leader_of r.cluster ~range:0 with
                    | Some v -> v
                    | None -> failwith "failover: range 0 has no leader at the crash instant"
                  in
                  victim := v;
                  victim_ranges :=
                    List.filter
                      (fun range -> Cluster.leader_of r.cluster ~range = Some v)
                      (Partition.range_ids partition);
                  crash_at := Some (Sim.Engine.now r.engine);
                  r.fine <- true;
                  Cluster.crash_node r.cluster v );
              ( sec 8,
                fun () ->
                  let node = Cluster.node r.cluster !victim in
                  catchup_target :=
                    List.map
                      (fun range ->
                        let target =
                          match Cluster.leader_of r.cluster ~range with
                          | Some l -> (
                            match Node.cohort (Cluster.node r.cluster l) ~range with
                            | Some c -> Cohort.cmt c
                            | None -> Storage.Lsn.zero)
                          | None -> Storage.Lsn.zero
                        in
                        (range, target))
                      (Node.ranges node);
                  restart_at := Some (Sim.Engine.now r.engine);
                  r.fine <- true;
                  Cluster.restart_node r.cluster !victim );
            ];
          poll;
          check =
            (fun () ->
              let failures = ref [] in
              if not (settle r ~poll ~limit:(sec 30) (fun () -> !caught_up_at <> None))
              then failures := [ "the restarted node never caught up" ];
              if not (all_ranges elected) then
                failures := "a range the crashed leader led never elected a leader" :: !failures;
              if not (all_ranges first_ack) then
                failures :=
                  "a range the crashed leader led never acknowledged a write" :: !failures;
              let keys = Hashtbl.fold (fun k _ acc -> k :: acc) ledger.keys [] in
              let keys = Array.of_list (List.sort String.compare keys) in
              !failures @ read_back r ledger keys);
          extra =
            (fun () ->
              let or0 = Option.value ~default:0.0 in
              [
                ("unavail_ms", or0 (max_span since_crash first_ack));
                ("election.ms", or0 (max_span since_crash elected));
                ("takeover.ms", or0 (max_span (Hashtbl.find_opt elected) first_ack));
                ( "catchup.ms",
                  match (!restart_at, !caught_up_at) with
                  | Some a, Some b -> T.to_ms_f (T.diff b a)
                  | _ -> 0.0 );
              ]);
        });
  }

let specs =
  [ ("put", put_spec); ("read", read_spec); ("txn", txn_spec); ("failover", failover_spec) ]

(* --- measurement -------------------------------------------------------- *)

(* Push/pop pairs on the public event heap held at [depth] live entries: pop
   the earliest, push a successor a random interval later. *)
let heap_push_pop_ns depth =
  let h = Sim.Event_heap.create () in
  let rng = Sim.Rng.create 7 in
  let gaps = Array.init 4096 (fun _ -> 1 + Sim.Rng.int rng 100_000) in
  for i = 1 to max 1 depth do
    ignore (Sim.Event_heap.push h ~time:(T.at_us gaps.(i land 4095)) i)
  done;
  let pairs = 200_000 in
  let t0 = now_ns () in
  for i = 1 to pairs do
    match Sim.Event_heap.pop h with
    | Some (t, v) -> ignore (Sim.Event_heap.push h ~time:(T.add t (T.us gaps.(i land 4095))) v)
    | None -> ()
  done;
  elapsed_ns t0 /. float_of_int pairs

(* The store of [range]'s current leader, if it has one. *)
let leader_store r range =
  match Cluster.leader_of r.cluster ~range with
  | None -> None
  | Some n -> Option.map Cohort.store (Node.cohort (Cluster.node r.cluster n) ~range)

(* Replay the run's own keys through Store.get on the leader stores. *)
let store_get_ns r =
  let partition = Cluster.partition r.cluster in
  let stores = Hashtbl.create 16 in
  let targets =
    List.rev r.replay
    |> List.filter_map (fun key ->
           let range = Partition.route partition key in
           let s =
             match Hashtbl.find_opt stores range with
             | Some s -> s
             | None ->
               let s = leader_store r range in
               Hashtbl.add stores range s;
               s
           in
           Option.map (fun s -> (s, (key, column))) s)
    |> Array.of_list
  in
  let t0 = now_ns () in
  Array.iter (fun (s, coord) -> ignore (Storage.Store.get s coord)) targets;
  ratio (elapsed_ns t0) (float_of_int (Array.length targets))

let all_cohorts r =
  Array.to_list (Cluster.nodes r.cluster)
  |> List.concat_map (fun n -> List.filter_map (fun range -> Node.cohort n ~range) (Node.ranges n))

let critpath r =
  let trace = Cluster.trace r.cluster in
  let analysis =
    Sim.Critpath.analyze ~dropped:(Sim.Trace.dropped trace) ~events:(Sim.Trace.events trace) ()
  in
  let reqs = analysis.Sim.Critpath.requests in
  let n = List.length reqs in
  let total = List.fold_left (fun acc q -> acc +. q.Sim.Critpath.total_us) 0.0 reqs in
  let worst =
    List.fold_left (fun acc q -> Float.max acc (Sim.Critpath.conservation_error q)) 0.0 reqs
  in
  let incomplete =
    List.length (List.filter (fun (q : Sim.Critpath.request) -> q.incomplete) reqs)
  in
  let segments =
    List.concat_map
      (fun seg ->
        let name = Sim.Critpath.segment_name seg in
        let h = H.create () in
        List.iter (fun q -> H.record h (List.assoc seg q.Sim.Critpath.segments)) reqs;
        [
          (Printf.sprintf "critpath.%s.share" name, ratio (H.sum h) total);
          (Printf.sprintf "critpath.%s.p99_ms" name, pct h 0.99);
        ])
      Sim.Critpath.all_segments
  in
  ( Sim.Trace.dropped trace,
    segments
    @ [
        ("critpath.requests", float_of_int n);
        ("critpath.conservation_error", worst);
        ("critpath.incomplete_share", ratio_i incomplete n);
      ] )

(* JSON output. Numbers keep every digit needed to read them back exactly. *)
let json_str s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' | '\\' ->
        Buffer.add_char b '\\';
        Buffer.add_char b c
      | c when Char.code c < 0x20 || Char.code c > 0x7e ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_num f =
  if not (Float.is_finite f) then "null"
  else
    let short = Printf.sprintf "%.15g" f in
    if float_of_string short = f then short else Printf.sprintf "%.17g" f

let json_obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_str k ^ ": " ^ v) fields) ^ "}"

let obj kvs = json_obj (List.map (fun (k, v) -> (k, json_num v)) kvs)

(* Boot the cluster and run the workload's preload: the set-up phase. *)
let setup spec ~seed ~traced ~slice =
  let config =
    {
      spec.config with
      Config.metrics_sample_period = T.span_zero;
      outlier_top_k = 0;
      trace_capacity = (if traced then spec.trace_capacity else Sim.Trace.default_capacity);
    }
  in
  let engine = Sim.Engine.create ~seed:config.Config.seed () in
  let cluster = Cluster.create engine config in
  Sim.Trace.enable (Cluster.trace cluster) false;
  Cluster.start cluster;
  if not (Cluster.run_until_ready cluster) then failwith "cluster not ready";
  let r =
    {
      engine;
      cluster;
      traced;
      slice;
      rng = Sim.Rng.create (0x5eed lxor seed);
      measure_from = T.zero;
      stop = T.zero;
      lat = H.create ();
      read_lat = H.create ();
      write_lat = H.create ();
      attempted = 0;
      failed = 0;
      completed = 0;
      ops = 0;
      writes_acked = 0;
      outstanding = 0;
      clients = [];
      in_call = false;
      call_ns = 0.0;
      calls = 0;
      digest = Buffer.create 65536;
      replay = [];
      replay_n = 0;
      fine = false;
      markers = 0;
      pending_sum = 0.0;
      pending_n = 0;
      leaders = Array.make (Partition.ranges (Cluster.partition cluster)) None;
      elections = 0;
    }
  in
  let d = spec.drive r in
  d.preload ();
  List.iter (fun c -> Sim.Metrics.Write_phases.clear (Cohort.write_phases c)) (all_cohorts r);
  Array.iteri (fun range _ -> r.leaders.(range) <- Cluster.leader_of cluster ~range) r.leaders;
  (config, r, d)

(* One measured run, rendered as JSON. *)
let execute name spec ~seed ~traced ~slice =
  let config, r, d = setup spec ~seed ~traced ~slice in
  let engine = r.engine and cluster = r.cluster in
  let trace = Cluster.trace cluster in
  (* The measured run: the window plus the drain of in-flight requests. *)
  let net = Cluster.net cluster in
  let forces () =
    Array.fold_left
      (fun acc n -> acc + Storage.Wal.forces_issued (Node.wal n))
      0 (Cluster.nodes cluster)
  in
  let path0 = Cluster.read_path_stats cluster and serve0 = Cluster.read_serve_stats cluster in
  let msgs0 = Sim.Network.messages_delivered net and bytes0 = Sim.Network.bytes_sent net in
  let forces0 = forces () and events0 = Sim.Engine.events_run engine - r.markers in
  Sim.Trace.enable trace traced;
  Gc.compact ();
  let gc0 = Gc.quick_stat () in
  let t_run = now_ns () in
  let start = Sim.Engine.now engine in
  r.measure_from <- T.add start spec.warmup;
  r.stop <- T.add r.measure_from spec.measure;
  d.clients ();
  List.iter
    (fun (offset, f) ->
      advance r ~poll:d.poll (T.add r.measure_from offset);
      f ())
    (List.sort (fun (a, _) (b, _) -> T.span_compare a b) d.milestones);
  advance r ~poll:d.poll r.stop;
  let drained = settle r ~poll:d.poll ~limit:(sec 60) (fun () -> r.outstanding = 0) in
  let run_wall = elapsed_ns t_run in
  let gc1 = Gc.quick_stat () in
  let sim_s = T.to_sec_f (T.diff (Sim.Engine.now engine) start) in
  let events = Sim.Engine.events_run engine - r.markers - events0 in
  let path1 = Cluster.read_path_stats cluster and serve1 = Cluster.read_serve_stats cluster in
  let msgs = Sim.Network.messages_delivered net - msgs0 in
  let bytes = Sim.Network.bytes_sent net - bytes0 in
  let forces = forces () - forces0 in
  let wp = Cluster.write_phases cluster in
  let retries = List.fold_left (fun acc c -> acc + Client.retries c) 0 r.clients in
  Sim.Trace.enable trace false;
  let traced_out = if traced then Some (critpath r) else None in
  (* Output checks, after the window: they may drive the engine further. *)
  let failures =
    (if drained then [] else [ Printf.sprintf "%d requests never completed" r.outstanding ])
    @ d.check ()
    @
    match traced_out with
    | Some (dropped, _) when dropped > 0 ->
      [ Printf.sprintf "trace ring dropped %d events" dropped ]
    | Some (_, m) when List.assoc "critpath.conservation_error" m > 0.01 ->
      [ "critical-path conservation error above 1%" ]
    | _ -> []
  in
  let extra = d.extra () in
  let window_s = T.to_sec_f spec.measure in
  let dpath f = f path1 - f path0 and dserve f = f serve1 - f serve0 in
  let lookups = dpath (fun s -> s.Cluster.cache_hits) + dpath (fun s -> s.Cluster.cache_misses) in
  let strong = dserve (fun s -> s.Cluster.leased) + dserve (fun s -> s.Cluster.guarded) in
  let timeline =
    dserve (fun s -> s.Cluster.leader_timeline) + dserve (fun s -> s.Cluster.follower_timeline)
  in
  let reads = strong + timeline in
  let leader_stores =
    List.filter_map (leader_store r) (Partition.range_ids (Cluster.partition cluster))
  in
  let user_bytes =
    float_of_int r.writes_acked *. float_of_int config.Config.value_bytes
    *. float_of_int config.Config.replication
  in
  let sim =
    [
      ("throughput_ops_s", float_of_int r.completed /. window_s);
      ("latency_p50_ms", pct r.lat 0.50);
      ("latency_p99_ms", pct r.lat 0.99);
      ("latency_p999_ms", pct r.lat 0.999);
      ("read_latency_p99_ms", pct r.read_lat 0.99);
      ("write_latency_p99_ms", pct r.write_lat 0.99);
      ("latency.samples", float_of_int (H.count r.lat));
      ("read_latency.samples", float_of_int (H.count r.read_lat));
      ("write_latency.samples", float_of_int (H.count r.write_lat));
      ("attempted", float_of_int r.attempted);
      ("failed", float_of_int r.failed);
      ("failed_ratio", ratio_i r.failed r.attempted);
    ]
  in
  let module W = Sim.Metrics.Write_phases in
  let counts =
    [
      ("engine.events_per_op", ratio_i events r.ops);
      ("engine.pending_mean", ratio r.pending_sum (float_of_int r.pending_n));
      ("network.msgs_per_op", ratio_i msgs r.ops);
      ("network.bytes_per_op", ratio_i bytes r.ops);
      ("network.transit_ms_p50", pct wp.W.transit 0.50);
      ("cohort.queue_ms_p50", pct wp.W.queue 0.50);
      ("cohort.queue_ms_p99", pct wp.W.queue 0.99);
      ("cohort.force_ms_p50", pct wp.W.force 0.50);
      ("cohort.replication_ms_p50", pct wp.W.replication 0.50);
      ("cohort.replication_ms_p99", pct wp.W.replication 0.99);
      ("cohort.apply_ms_p50", pct wp.W.apply 0.50);
      ("wal.forces_per_op", ratio_i forces r.writes_acked);
      ("store.cache_hit_ratio", ratio_i (dpath (fun s -> s.Cluster.cache_hits)) lookups);
      ( "store.sstables_probed_per_read",
        ratio_i (dpath (fun s -> s.Cluster.sstables_probed)) lookups );
      ( "store.sstables_skipped_per_read",
        ratio_i (dpath (fun s -> s.Cluster.sstables_skipped)) lookups );
      ( "store.sstables_per_range",
        ratio_i
          (List.fold_left (fun acc s -> acc + Storage.Store.sstable_count s) 0 leader_stores)
          (List.length leader_stores) );
      ( "store.compaction_bytes_per_user_byte",
        ratio (float_of_int (dpath (fun s -> s.Cluster.total_compaction_input_bytes))) user_bytes );
      ("read.leased_share", ratio_i (dserve (fun s -> s.Cluster.leased)) strong);
      ("read.follower_share", ratio_i (dserve (fun s -> s.Cluster.follower_timeline)) timeline);
      ( "read.token_waits_per_1k",
        1000.0 *. ratio_i (dserve (fun s -> s.Cluster.token_waits)) reads );
      ( "read.token_redirects_per_1k",
        1000.0 *. ratio_i (dserve (fun s -> s.Cluster.token_redirects)) reads );
      ("client.retries_per_1k", 1000.0 *. ratio_i retries r.ops);
      ("election.count", float_of_int r.elections);
    ]
    (* Workload-specific counts read 0 where they do not apply. *)
    @ List.map
        (fun k -> (k, Option.value (List.assoc_opt k extra) ~default:0.0))
        [ "txn.aborts_per_commit"; "unavail_ms"; "election.ms"; "takeover.ms"; "catchup.ms" ]
  in
  let heap_push_pop_ns =
    heap_push_pop_ns (int_of_float (ratio r.pending_sum (float_of_int r.pending_n)))
  in
  let store_get_ns = store_get_ns r in
  let key_stream = Digest.to_hex (Digest.string (Buffer.contents r.digest)) in
  let cost =
    [
      ("sim_s_per_wall_s", sim_s /. (run_wall /. 1e9));
      ("peak_heap_mb", float_of_int (gc1.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0);
      ("engine.wall_ns_per_event", ratio run_wall (float_of_int events));
      ( "engine.minor_words_per_event",
        ratio (gc1.Gc.minor_words -. gc0.Gc.minor_words) (float_of_int events) );
      ( "engine.promoted_words_per_event",
        ratio (gc1.Gc.promoted_words -. gc0.Gc.promoted_words) (float_of_int events) );
      ("engine.major_gcs", float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections));
      ("event_heap.push_pop_ns", heap_push_pop_ns);
      ("store.get_wall_ns", store_get_ns);
    ]
  in
  let traced_json =
    match traced_out with
    | None -> "null"
    | Some (dropped, m) ->
      obj
        ((("trace.dropped", float_of_int dropped)
         :: ("trace.events", float_of_int (Sim.Trace.length trace))
         :: m)
        @ [ ("client.issue_wall_ns", ratio r.call_ns (float_of_int r.calls)) ])
  in
  json_obj
      [
        ("workload", json_str name);
        ("seed", string_of_int seed);
        ("key_stream", json_str key_stream);
        ("sim", obj sim);
        ("counts", obj counts);
        ("cost", obj cost);
        ("traced", traced_json);
        ("failures", "[" ^ String.concat ", " (List.map json_str failures) ^ "]");
      ]

(* A fixed piece of standard-library work (hash table, map and list sort;
   no library code, so no change to the library can speed it up) that takes
   [reference_nominal_s] on the machine the benchmark was calibrated on. *)
module Int_map = Map.Make (Int)

let reference () =
  let h = Hashtbl.create 16 and m = ref Int_map.empty in
  for i = 0 to 6000 do
    Hashtbl.replace h (i * 7919 land 65535) (string_of_int i);
    m := Int_map.add (i * 104729 land 1048575) [ i; i + 1 ] !m
  done;
  ignore (List.sort compare (List.init 8000 (fun i -> i * 31337 land 65535)));
  ignore (Sys.opaque_identity (h, !m))

let reference_nominal_s = 0.004

(* Wall seconds of [f ()], started from a fully collected heap so that the
   garbage of the work before does not decide how much major-GC work lands
   inside it. *)
let timed f =
  Gc.full_major ();
  let t0 = now_ns () in
  f ();
  elapsed_ns t0 /. 1e9

(* Set-up timing: untraced set-ups back to back until [budget_ms] of wall
   time has passed (at least one), each bracketed by two timings of
   [reference]. The host this was written on switches between speeds up to
   1.8x apart every few seconds; set-up time divided by the mean of its two
   reference times stayed within a few percent through those switches, so
   each set-up is reported normalised, as its time in seconds at the
   reference speed, beside its raw wall time. *)
let probe_setup spec ~seed ~slice budget_ms =
  let budget = float_of_int budget_ms *. 1e6 in
  let start = now_ns () in
  let raw = ref [] and normalised = ref [] in
  let before = ref (timed reference) in
  while !raw = [] || elapsed_ns start < budget do
    let s = timed (fun () -> ignore (setup spec ~seed ~traced:false ~slice)) in
    let after = timed reference in
    raw := s :: !raw;
    normalised := (s /. ((!before +. after) /. 2.0) *. reference_nominal_s) :: !normalised;
    before := after
  done;
  let list xs = "[" ^ String.concat ", " (List.rev_map json_num xs) ^ "]" in
  json_obj [ ("setup_s", list !normalised); ("setup_wall_s", list !raw) ]

let () =
  let usage = "perfbench.exe WORKLOAD --seed N [--trace] [--slice-ms MS] [--setup-probe MS]" in
  let workload = ref None and seed = ref None and traced = ref false and slice = ref 1 in
  let probe = ref None in
  let rec parse = function
    | [] -> ()
    | "--seed" :: n :: rest ->
      seed := int_of_string_opt n;
      parse rest
    | "--trace" :: rest ->
      traced := true;
      parse rest
    | "--slice-ms" :: n :: rest ->
      slice := Option.value (int_of_string_opt n) ~default:0;
      parse rest
    | "--setup-probe" :: n :: rest ->
      probe := Some (Option.value (int_of_string_opt n) ~default:0);
      parse rest
    | w :: rest when !workload = None && List.mem_assoc w specs ->
      workload := Some w;
      parse rest
    | arg :: _ ->
      prerr_endline (Printf.sprintf "unexpected argument %S\nusage: %s" arg usage);
      exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed) with
  | Some w, Some seed when !slice > 0 ->
    let spec = List.assoc w specs and traced = !traced and slice = ms !slice in
    print_endline
      (match !probe with
      | Some budget_ms -> probe_setup spec ~seed ~slice budget_ms
      | None -> execute w spec ~seed ~traced ~slice)
  | _ ->
    prerr_endline ("usage: " ^ usage);
    exit 2
