open Btr_util
module Evidence = Btr_evidence.Evidence
module Obs = Btr_obs.Obs

let path_statement_admissible (s : Evidence.statement) =
  match s.accused with
  | Evidence.Path (a, b) -> s.detector = a || s.detector = b
  | Evidence.Node _ -> true

module Watchdog = struct
  type expectation = { from_node : int; deadline : Time.t }
  type late = { flow : int; period : int; from_node : int; lateness : Time.t }

  type miss = {
    miss_flow : int;
    miss_period : int;
    miss_from : int;
    account : int;
    declared : bool;
  }

  type t = {
    node : int;
    margin : Time.t;
    strikes : int;
    obs : Obs.t;
    late_count : Obs.Counter.t;
    missing_count : Obs.Counter.t;
    reset_count : Obs.Counter.t;
    (* Every expectation ever registered, keyed by [Inttbl.pack flow
       period]; never shrinks, so late and repeated arrivals still find
       theirs. *)
    table : expectation Inttbl.t;
    (* The part of [table] neither arrived nor reported yet: all that
       [sweep] has to look at. *)
    unmet : expectation Inttbl.t;
    (* Per-sender strike account, shared across every watcher path from
       that sender to this node. Bumped at most once per sweep, reset on
       a timely arrival — so only a sustained per-sender outage (not
       accumulated unrelated losses) ever reaches [strikes]. *)
    accounts : int Inttbl.t;
  }

  let create ~node ~margin ?(strikes = 1) ?(obs = Obs.null) () =
    if strikes < 1 then invalid_arg "Watchdog.create: strikes < 1";
    let reg = Obs.registry obs in
    {
      node;
      margin;
      strikes;
      obs;
      late_count = Obs.Registry.counter reg Obs.Detect "watchdog-late";
      missing_count = Obs.Registry.counter reg Obs.Detect "watchdog-missing";
      reset_count = Obs.Registry.counter reg Obs.Detect "strike-resets";
      table = Inttbl.create 64;
      unmet = Inttbl.create 16;
      accounts = Inttbl.create 16;
    }

  let account t ~from_node =
    match Inttbl.find t.accounts from_node with n -> n | exception Not_found -> 0

  let expect t ~flow ~period ~from_node ~deadline =
    let k = Inttbl.pack flow period in
    if not (Inttbl.mem t.table k) then begin
      let e = { from_node; deadline } in
      Inttbl.replace t.table k e;
      Inttbl.replace t.unmet k e
    end

  let note_arrival t ~flow ~period ~at =
    let k = Inttbl.pack flow period in
    match Inttbl.find t.table k with
    | exception Not_found -> None
    | e ->
      Inttbl.remove t.unmet k;
      let limit = Time.add e.deadline t.margin in
      if Time.compare at limit > 0 then begin
        let lateness = Time.sub at limit in
        Obs.Counter.incr t.late_count;
        if Obs.enabled t.obs then
          Obs.emit t.obs ~at ~node:t.node Obs.Detect
            (Obs.Watchdog_late { flow; period; from_node = e.from_node; lateness });
        Some { flow; period; from_node = e.from_node; lateness }
      end
      else begin
        (* A timely arrival proves the sender is live on this path right
           now: clear its strike account so sporadic, spread-out link
           loss can never accumulate into a false declaration. *)
        if account t ~from_node:e.from_node > 0 then begin
          Inttbl.replace t.accounts e.from_node 0;
          Obs.Counter.incr t.reset_count
        end;
        None
      end

  let sweep t ~now =
    (* Sorted traversal: the report order feeds evidence emission and
       the telemetry trace, so it must not depend on insertion order.
       Packed keys sort like (flow, period). *)
    let due =
      if Inttbl.length t.unmet = 0 then []
      else
        List.filter_map
          (fun k ->
            let e = Inttbl.find t.unmet k in
            if Time.compare now (Time.add e.deadline t.margin) > 0 then Some (k, e)
            else None)
          (Inttbl.sorted_keys t.unmet)
    in
    List.iter (fun (k, _) -> Inttbl.remove t.unmet k) due;
    (* Bump each sender's account at most once per sweep, no matter how
       many of its flows are overdue: detection latency then depends on
       sustained periods of silence, not on watcher fan-in. *)
    ignore
      (List.fold_left
         (fun bumped (_, (e : expectation)) ->
           if List.mem e.from_node bumped then bumped
           else begin
             Inttbl.replace t.accounts e.from_node (1 + account t ~from_node:e.from_node);
             e.from_node :: bumped
           end)
         [] due
        : int list);
    List.map
      (fun (k, (e : expectation)) ->
        let flow = Inttbl.hi k and period = Inttbl.lo k in
        let n = account t ~from_node:e.from_node in
        let declared = n >= t.strikes in
        if declared then begin
          Obs.Counter.incr t.missing_count;
          if Obs.enabled t.obs then
            Obs.emit t.obs ~at:now ~node:t.node Obs.Detect
              (Obs.Watchdog_missing { flow; period; from_node = e.from_node })
        end;
        {
          miss_flow = flow;
          miss_period = period;
          miss_from = e.from_node;
          account = n;
          declared;
        })
      due

  let overdue t ~now =
    List.filter_map
      (fun m ->
        if m.declared then Some (m.miss_flow, m.miss_period, m.miss_from)
        else None)
      (sweep t ~now)

  let pending t = Inttbl.length t.unmet
end

module Attribution = struct
  type t = {
    threshold : int;
    window : int;
    counterpart : (int, int list ref) Hashtbl.t;
    (* Set mirror of [counterpart] so membership checks are O(1); the
       list keeps first-seen order for deterministic output. *)
    counterpart_set : (int * int, unit) Hashtbl.t;
    attributed_set : (int, unit) Hashtbl.t;
    mutable attributed_rev : int list;
    (* sender -> (watcher -> period of its most recent suspicion) *)
    suspicions : (int, (int, int) Hashtbl.t) Hashtbl.t;
    corroborated : (int, unit) Hashtbl.t;
  }

  let create ?(window = 4) ~threshold () =
    if threshold < 1 then invalid_arg "Attribution.create: threshold < 1";
    if window < 1 then invalid_arg "Attribution.create: window < 1";
    {
      threshold;
      window;
      counterpart = Hashtbl.create 16;
      counterpart_set = Hashtbl.create 32;
      attributed_set = Hashtbl.create 16;
      attributed_rev = [];
      suspicions = Hashtbl.create 16;
      corroborated = Hashtbl.create 4;
    }

  let counterparties t n =
    match Hashtbl.find_opt t.counterpart n with Some l -> List.rev !l | None -> []

  let is_attributed t n = Hashtbl.mem t.attributed_set n

  let note_one t node other =
    if Hashtbl.mem t.counterpart_set (node, other) then false
    else begin
      Hashtbl.replace t.counterpart_set (node, other) ();
      let l =
        match Hashtbl.find_opt t.counterpart node with
        | Some l -> l
        | None ->
          let l = ref [] in
          Hashtbl.replace t.counterpart node l;
          l
      in
      l := other :: !l;
      List.length !l >= t.threshold && not (is_attributed t node)
    end

  let note_path t ~a ~b =
    let newly = ref [] in
    if note_one t a b then newly := a :: !newly;
    if note_one t b a then newly := b :: !newly;
    List.iter
      (fun n ->
        Hashtbl.replace t.attributed_set n ();
        t.attributed_rev <- n :: t.attributed_rev)
      !newly;
    List.rev !newly

  let attributed t = List.rev t.attributed_rev

  let is_corroborated t ~sender = Hashtbl.mem t.corroborated sender

  let note_suspicion t ~sender ~watcher ~period =
    if Hashtbl.mem t.corroborated sender then []
    else begin
      let tbl =
        match Hashtbl.find_opt t.suspicions sender with
        | Some tbl -> tbl
        | None ->
          let tbl = Hashtbl.create 8 in
          Hashtbl.replace t.suspicions sender tbl;
          tbl
      in
      let prev = Option.value ~default:min_int (Hashtbl.find_opt tbl watcher) in
      if period > prev then Hashtbl.replace tbl watcher period;
      (* Only suspicions recent enough to describe the same outage count
         as corroborating; stale entries from an old, recovered glitch
         age out of the window. *)
      let recent =
        Table.sorted_fold ~cmp:Int.compare
          (fun w p acc -> if period - p <= t.window then w :: acc else acc)
          tbl []
      in
      let recent = List.sort Int.compare recent in
      if List.length recent >= t.threshold then begin
        Hashtbl.replace t.corroborated sender ();
        recent
      end
      else []
    end
end
