(* Distributed, resumable campaign orchestration: sharding, resume,
   combine, adaptive frontier search. See orchestrate.mli.

   The whole module trades on one property of the executor: a trial's
   verdict (and its serialized line) is a pure function of the campaign
   spec and the trial index. Sharding, resuming and combining therefore
   only ever *partition* or *reuse* work — they can cross-check every
   merge byte-for-byte, and the canonical artifact of a campaign is
   unique however its execution was sliced. *)

open Btr_util
module Obs = Btr_obs.Obs
module J = Flat_json
module Task = Btr_workload.Task

let ( let* ) = Result.bind

(* ------------------------------------------------------------------ *)
(* Sharding                                                            *)

type shard = { index : int; count : int }

let unsharded = { index = 0; count = 1 }

let shard_to_string s = Printf.sprintf "%d/%d" s.index s.count

let valid_shard s = s.count >= 1 && s.index >= 0 && s.index < s.count

let shard_of_string str =
  let bad () = Error (Printf.sprintf "bad shard %S (want i/n with 0 <= i < n)" str) in
  match String.split_on_char '/' (String.trim str) with
  | [ i; n ] -> (
    match int_of_string_opt i, int_of_string_opt n with
    | Some index, Some count when valid_shard { index; count } -> Ok { index; count }
    | _ -> bad ())
  | _ -> bad ()

(* The stable rule. Hashing (seed, index) — never the schedule bytes —
   keeps the partition independent of generator changes within a seed
   and spreads neighbouring indices (which share a grid config) across
   shards, so every shard planning-caches roughly the same configs.
   One FNV-1a pass is not enough here: when inputs differ only in the
   trailing index digits, the hash is near-linear in that digit (the
   final multiplies only carry upward), so [mod 2] would alternate
   even/odd and glue every even grid config to shard 0. Hashing the
   hex rendering of the first pass runs every output bit back through
   sixteen mixing rounds and disperses the low bits properly. *)
let shard_of_trial ~seed ~count i =
  if count <= 1 then 0
  else
    Fnv.hash (Fnv.to_hex (Fnv.hash64 (Printf.sprintf "trial:%d:%d" seed i)))
    mod count

let shard_trials shard (spec : Campaign.spec) =
  List.filter
    (fun (t : Campaign.trial) ->
      shard_of_trial ~seed:spec.seed ~count:shard.count t.index = shard.index)
    (Campaign.compile spec)

(* ------------------------------------------------------------------ *)
(* Spec fingerprints                                                   *)

let spec_fingerprint (spec : Campaign.spec) =
  let trial_line (t : Campaign.trial) =
    Printf.sprintf "%d|%d|%s|%d|%s" t.index t.runtime_seed
      (Campaign.script_to_string t.script)
      t.horizon
      (Format.asprintf "%a" Campaign.pp_params t.params)
  in
  let header =
    Printf.sprintf "spec|seed=%d|trials=%d|shrink=%b|budget=%d|grid=%s" spec.seed
      spec.trials spec.shrink spec.shrink_budget
      (Campaign.grid_axes spec.grid)
  in
  Fnv.to_hex (Fnv.hash64_lines (header :: List.map trial_line (Campaign.compile spec)))

(* ------------------------------------------------------------------ *)
(* Artifact lines                                                      *)

type entry = { raw : string; fields : (string * J.value) list }

let has key e = J.int_of e.fields key <> None
let by_index l = List.sort (fun (a, _) (b, _) -> Int.compare a b) l

(* Every nonblank line, parsed. A final line that does not parse is a
   torn write (the writer was killed mid-line): it is dropped and
   flagged. Any other malformed line is an error. *)
let parse_lines lines =
  let rec go acc = function
    | [] -> Ok (List.rev acc, false)
    | l :: rest -> (
      match J.parse l with
      | Ok fields -> go ({ raw = l; fields } :: acc) rest
      | Error _ when rest = [] -> Ok (List.rev acc, true)
      | Error m -> Error (Printf.sprintf "malformed artifact line %S: %s" l m))
  in
  go [] (List.filter (fun l -> String.trim l <> "") lines)

let torn_error = Error "artifact is truncated: its last line is incomplete"

(* The artifact of [verdicts] (index, entry) and [violation_lines],
   both in trial order. The summary's tallies are recomputed from the
   verdicts so a resumed or combined artifact summarizes the merged
   whole, not just the freshly executed part. No cache_hits/cache_misses
   here: those depend on how execution was partitioned, and the summary
   must be byte-identical however the campaign was sliced. *)
let assemble ~seed ~trials ~configs ~shrink ~grid ~spec_fp ~complete shard ~verdicts
    ~violation_lines =
  let verdict_lines = List.map (fun (_, e) -> e.raw) verdicts in
  let tally v =
    List.length (List.filter (fun (_, e) -> J.str_of e.fields "verdict" = Some v) verdicts)
  in
  let header =
    J.to_string
      [
        ("campaign", J.Int 2);
        ("seed", J.Int seed);
        ("trials", J.Int trials);
        ("configs", J.Int configs);
        ("shrink", J.Bool shrink);
        ("grid", J.Str grid);
        ("spec_fp", J.Str spec_fp);
        ("shard_index", J.Int shard.index);
        ("shard_count", J.Int shard.count);
      ]
  in
  let summary =
    J.to_string
      [
        ("total", J.Int (List.length verdicts));
        ("violations", J.Int (tally "violation"));
        ("rejected", J.Int (tally "rejected"));
        ("errors", J.Int (tally "error"));
        ("configs", J.Int configs);
        ("complete", J.Bool complete);
        ("shard_index", J.Int shard.index);
        ("shard_count", J.Int shard.count);
        ("fingerprint", J.Str (Fnv.to_hex (Fnv.hash64_lines verdict_lines)));
      ]
  in
  ((header :: verdict_lines) @ violation_lines @ [ summary ], tally "violation" > 0)

type artifact = {
  a_seed : int;
  a_trials : int;
  a_configs : int;
  a_shrink : bool;
  a_grid : string;
  a_spec_fp : string;
  a_shard : shard;
  a_complete : bool;
  a_torn : bool;
  a_fingerprint : string;
  a_verdicts : (int * entry) list;
  a_violations : (int * entry) list;
}

let parse_artifact lines =
  let* objs, a_torn = parse_lines lines in
  let* header =
    match List.filter (has "campaign") objs with
    | [ h ] -> Ok h.fields
    | [] -> Error "artifact has no header line"
    | _ -> Error "artifact has multiple header lines (concatenated shards? use combine)"
  in
  let* () =
    match J.int_of header "campaign" with
    | Some 2 -> Ok ()
    | Some v ->
      Error
        (Printf.sprintf
           "artifact version %d is not orchestrated (re-run campaign run to upgrade)" v)
    | None -> Error "artifact header has no version"
  in
  let* summary =
    match List.filter (has "total") objs with
    | [] -> Ok None
    | [ s ] -> Ok (Some s.fields)
    | _ -> Error "artifact has multiple summary lines"
  in
  let req get name =
    match get header name with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "artifact header is missing %S" name)
  in
  let* a_seed = req J.int_of "seed" in
  let* a_trials = req J.int_of "trials" in
  let* a_configs = req J.int_of "configs" in
  let* shard_index = req J.int_of "shard_index" in
  let* shard_count = req J.int_of "shard_count" in
  let a_shard = { index = shard_index; count = shard_count } in
  let* () =
    if valid_shard a_shard then Ok ()
    else Error (Printf.sprintf "artifact header has bad shard %s" (shard_to_string a_shard))
  in
  let* a_shrink = req J.bool_of "shrink" in
  let* a_grid = req J.str_of "grid" in
  let* a_spec_fp = req J.str_of "spec_fp" in
  let keyed key =
    by_index
      (List.filter_map (fun e -> Option.map (fun i -> (i, e)) (J.int_of e.fields key)) objs)
  in
  let a_verdicts = keyed "trial" in
  let a_violations = keyed "violation" in
  let* () =
    let rec dup = function
      | (a, _) :: ((b, _) :: _ as rest) ->
        if a = b then Some a else dup rest
      | _ -> None
    in
    match dup a_verdicts with
    | Some i -> Error (Printf.sprintf "artifact records trial %d twice" i)
    | None -> Ok ()
  in
  let a_complete =
    match summary with Some s -> J.bool_of s "complete" = Some true | None -> false
  in
  let a_fingerprint =
    match summary with
    | Some s -> Option.value ~default:"" (J.str_of s "fingerprint")
    | None -> ""
  in
  Ok
    {
      a_seed;
      a_trials;
      a_configs;
      a_shrink;
      a_grid;
      a_spec_fp;
      a_shard;
      a_complete;
      a_torn;
      a_fingerprint;
      a_verdicts;
      a_violations;
    }

(* ------------------------------------------------------------------ *)
(* Orchestrated runs                                                   *)

type run_result = {
  lines : string list;
  total : int;
  executed : int;
  skipped : int;
  complete : bool;
  has_violations : bool;
  new_violations : Campaign.shrunk_violation list;
}

let rec take k = function
  | [] -> []
  | x :: rest -> if k <= 0 then [] else x :: take (k - 1) rest

let count_to reg name v =
  Obs.Counter.add (Obs.Registry.counter reg Obs.Campaign name) v

let run ?obs ?jobs ?resume ?max_trials ~shard (spec : Campaign.spec) =
  let* () =
    if valid_shard shard then Ok ()
    else Error (Printf.sprintf "bad shard %s" (shard_to_string shard))
  in
  let* () = Campaign.validate_grid spec.grid in
  let obs = match obs with Some o -> o | None -> Obs.create () in
  let spec_fp = spec_fingerprint spec in
  let configs = List.length (Campaign.grid_params spec.grid) in
  let mine = shard_trials shard spec in
  let total = List.length mine in
  let reg = Obs.registry obs in
  Obs.Gauge.set (Obs.Registry.gauge reg Obs.Campaign "shard.index") shard.index;
  Obs.Gauge.set (Obs.Registry.gauge reg Obs.Campaign "shard.count") shard.count;
  count_to reg "shard.trials" total;
  if Obs.enabled obs then
    Obs.emit obs ~at:Time.zero Obs.Campaign
      (Obs.Campaign_sharded { shard = shard.index; shards = shard.count; trials = total });
  let* recorded_verdicts, recorded_violations =
    match resume with
    | None -> Ok ([], [])
    | Some (a : artifact) ->
      let* () =
        if a.a_shard <> shard then
          Error
            (Printf.sprintf "resume artifact is shard %s, this run is shard %s"
               (shard_to_string a.a_shard) (shard_to_string shard))
        else if a.a_seed <> spec.seed || a.a_trials <> spec.trials then
          Error
            (Printf.sprintf
               "resume artifact was seed %d / %d trials, this campaign is seed %d / %d \
                trials"
               a.a_seed a.a_trials spec.seed spec.trials)
        else if a.a_spec_fp <> spec_fp then
          Error
            (Printf.sprintf
               "resume artifact fingerprint %s does not match the compiled campaign %s \
                (different grid, shrink setting or generator?)"
               a.a_spec_fp spec_fp)
        else Ok ()
      in
      let* () =
        match
          List.find_opt
            (fun (i, _) ->
              not (List.exists (fun (t : Campaign.trial) -> t.index = i) mine))
            a.a_verdicts
        with
        | Some (i, _) ->
          Error
            (Printf.sprintf "resume artifact records trial %d, which is not in shard %s"
               i (shard_to_string shard))
        | None -> Ok ()
      in
      Ok (a.a_verdicts, List.map (fun (i, e) -> (i, e.raw)) a.a_violations)
  in
  let recorded i = List.mem_assoc i recorded_verdicts in
  let todo = List.filter (fun (t : Campaign.trial) -> not (recorded t.index)) mine in
  let skipped = total - List.length todo in
  count_to reg "resume.skipped" skipped;
  if Obs.enabled obs && resume <> None then
    Obs.emit obs ~at:Time.zero Obs.Campaign
      (Obs.Campaign_resumed { skipped; remaining = List.length todo });
  let todo = match max_trials with None -> todo | Some k -> take k todo in
  let executed = List.length todo in
  let result = Campaign.run_trials ~obs ?jobs spec todo in
  let new_verdicts =
    List.map
      (fun (v : Campaign.verdict) ->
        let fields = Campaign.verdict_fields v in
        (v.trial.index, { raw = J.to_string fields; fields }))
      result.verdicts
  in
  let new_violation_lines =
    List.map
      (fun (s : Campaign.shrunk_violation) -> (s.source.index, Campaign.violation_json s))
      result.violations
  in
  let complete = skipped + executed = total in
  let lines, has_violations =
    assemble ~seed:spec.seed ~trials:spec.trials ~configs ~shrink:spec.shrink
      ~grid:(Campaign.grid_axes spec.grid) ~spec_fp ~complete shard
      ~verdicts:(by_index (recorded_verdicts @ new_verdicts))
      ~violation_lines:(List.map snd (by_index (recorded_violations @ new_violation_lines)))
  in
  Ok
    {
      lines;
      total;
      executed;
      skipped;
      complete;
      has_violations;
      new_violations = result.violations;
    }

(* ------------------------------------------------------------------ *)
(* Combine                                                             *)

let combine inputs =
  let* () = if inputs = [] then Error "no artifacts to combine" else Ok () in
  let rec parse_each i = function
    | [] -> Ok []
    | lines :: rest -> (
      match parse_artifact lines with
      | Error m -> Error (Printf.sprintf "artifact %d: %s" i m)
      | Ok a ->
        let* others = parse_each (i + 1) rest in
        Ok (a :: others))
  in
  let* arts = parse_each 0 inputs in
  let first = List.hd arts in
  let* () =
    match
      List.find_opt
        (fun a ->
          a.a_seed <> first.a_seed || a.a_trials <> first.a_trials
          || a.a_configs <> first.a_configs || a.a_shrink <> first.a_shrink
          || a.a_grid <> first.a_grid || a.a_spec_fp <> first.a_spec_fp)
        arts
    with
    | Some a ->
      Error
        (Printf.sprintf
           "artifacts disagree: spec %s (seed %d, %d trials) vs spec %s (seed %d, %d \
            trials) — shards of different campaigns cannot be combined"
           first.a_spec_fp first.a_seed first.a_trials a.a_spec_fp a.a_seed a.a_trials)
    | None -> Ok ()
  in
  let n = List.length arts in
  let* () =
    match List.find_opt (fun a -> a.a_shard.count <> n) arts with
    | Some a ->
      Error
        (Printf.sprintf "shard %s combined with %d artifact(s): need all %d shards"
           (shard_to_string a.a_shard) n a.a_shard.count)
    | None -> Ok ()
  in
  let indices = List.sort Int.compare (List.map (fun a -> a.a_shard.index) arts) in
  let* () =
    if indices = List.init n Fun.id then Ok ()
    else Error "shard indices are not exactly 0..n-1 (duplicate or missing shard)"
  in
  let* () =
    match List.find_opt (fun a -> not a.a_complete) arts with
    | Some a ->
      Error
        (Printf.sprintf "shard %s is incomplete — resume it before combining"
           (shard_to_string a.a_shard))
    | None -> Ok ()
  in
  (* Every trial index: recorded exactly once, in range, on the shard
     the rule assigns it to. *)
  let* () =
    let rec check_art = function
      | [] -> Ok ()
      | a :: rest ->
        let rec check_verdicts = function
          | [] -> check_art rest
          | (i, _) :: more ->
            if i < 0 || i >= first.a_trials then
              Error (Printf.sprintf "trial %d is outside 0..%d" i (first.a_trials - 1))
            else if shard_of_trial ~seed:first.a_seed ~count:n i <> a.a_shard.index then
              Error
                (Printf.sprintf
                   "trial %d is recorded in shard %d but hashes to shard %d — artifact \
                    was not produced by the sharding rule"
                   i a.a_shard.index
                   (shard_of_trial ~seed:first.a_seed ~count:n i))
            else check_verdicts more
        in
        check_verdicts a.a_verdicts
    in
    check_art arts
  in
  let verdicts = by_index (List.concat_map (fun a -> a.a_verdicts) arts) in
  let* () =
    if List.length verdicts = first.a_trials then Ok ()
    else
      Error
        (Printf.sprintf "combined shards record %d verdicts for %d trials"
           (List.length verdicts) first.a_trials)
  in
  let violations = by_index (List.concat_map (fun a -> a.a_violations) arts) in
  Ok
    (assemble ~seed:first.a_seed ~trials:first.a_trials ~configs:first.a_configs
       ~shrink:first.a_shrink ~grid:first.a_grid ~spec_fp:first.a_spec_fp ~complete:true
       unsharded ~verdicts
       ~violation_lines:(List.map (fun (_, e) -> e.raw) violations))

(* ------------------------------------------------------------------ *)
(* Adaptive frontier search                                            *)

type axis = Axis_r | Axis_f | Axis_bandwidth | Axis_strikes

let axis_name = function
  | Axis_r -> "r"
  | Axis_f -> "f"
  | Axis_bandwidth -> "bandwidth"
  | Axis_strikes -> "strikes"

let axis_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "r" | "r_us" -> Ok Axis_r
  | "f" -> Ok Axis_f
  | "bandwidth" | "bw" -> Ok Axis_bandwidth
  | "strikes" -> Ok Axis_strikes
  | _ -> Error (Printf.sprintf "unknown axis %S (want r, f, bandwidth or strikes)" s)

type frontier_spec = {
  slice_grid : Campaign.grid;
  axis : axis;
  lo : int;
  hi : int;
  tolerance : int;
  probes : int;
  fseed : int;
}

type boundary = { admit_at : int; violate_at : int }

type slice_result = {
  slice : int;
  base : Campaign.params;
  lo_admit : bool;
  hi_admit : bool;
  found : boundary option;
  evals : int;
  probes_run : int;
}

type frontier_result = {
  fspec : frontier_spec;
  points : int;
  slices : slice_result list;
  total_probes : int;
}

let params_at axis (p : Campaign.params) v =
  match axis with
  | Axis_r -> { p with Campaign.r = v }
  | Axis_f -> { p with Campaign.f = v }
  | Axis_bandwidth -> { p with Campaign.bandwidth_bps = v }
  | Axis_strikes -> p (* strikes is a runtime knob, not a params field *)

(* The slice grid with the bisected axis collapsed to [lo]: what
   [grid_params] enumerates is then exactly the config slices, each
   carrying a placeholder on the bisected axis that [params_at]
   overwrites per evaluation. *)
let slice_axes fs =
  let g = fs.slice_grid in
  match fs.axis with
  | Axis_r -> { g with Campaign.recovery_bounds = [ fs.lo ] }
  | Axis_f -> { g with Campaign.fault_bounds = [ fs.lo ] }
  | Axis_bandwidth -> { g with Campaign.bandwidths = [ fs.lo ] }
  | Axis_strikes -> g

let validate_frontier fs =
  let check ok msg = if ok then Ok () else Error msg in
  let* () = check (fs.tolerance >= 1) "tolerance must be >= 1" in
  let* () = check (fs.probes >= 1) "probes must be >= 1" in
  let* () = check (fs.lo < fs.hi) "lo must be < hi" in
  let* () =
    check (fs.hi - fs.lo >= fs.tolerance) "range narrower than the tolerance lattice"
  in
  let* () =
    match fs.axis with
    | Axis_r | Axis_bandwidth | Axis_strikes ->
      check (fs.lo >= 1) (Printf.sprintf "%s lo must be >= 1" (axis_name fs.axis))
    | Axis_f -> check (fs.lo >= 0) "f lo must be >= 0"
  in
  Campaign.validate_grid (slice_axes fs)

(* One lattice point of one slice: admit iff the configuration is
   statically admitted and every probe schedule passes. Short-circuits
   on the first non-pass, so the probe count is data-dependent (and
   reported). Pure in (fseed, slice params, axis value) — the property
   bisection relies on. *)
let eval_point ~cache fs (base : Campaign.params) v =
  let p = params_at fs.axis base v in
  let strikes = match fs.axis with Axis_strikes -> Some v | _ -> None in
  let pspec =
    Campaign.spec
      ~grid:{ (Campaign.point_grid p) with Campaign.classes = fs.slice_grid.Campaign.classes }
      ~trials:fs.probes ~seed:fs.fseed ~shrink:false ()
  in
  let rec probe j used =
    if j >= fs.probes then (true, used)
    else
      match Campaign.trial_of_index pspec j with
      | None -> (false, used)
      | Some t -> (
        let outcome =
          Campaign.run_script ?strikes ~cache t.Campaign.params
            ~runtime_seed:t.Campaign.runtime_seed t.Campaign.script
        in
        match outcome with
        | Campaign.Pass _ -> probe (j + 1) (used + 1)
        | Campaign.Violation _ | Campaign.Rejected _ | Campaign.Errored _ ->
          (false, used + 1))
  in
  probe 0 0

(* Shared driver: [search] maps an eval-at-lattice-index function and
   the lattice size to (lo_admit, hi_admit, boundary, evals, probes). *)
let run_frontier ?obs fs ~search =
  match validate_frontier fs with
  | Error _ as e -> e
  | Ok () ->
    let obs = match obs with Some o -> o | None -> Obs.create () in
    let reg = Obs.registry obs in
    let points = ((fs.hi - fs.lo) / fs.tolerance) + 1 in
    let value_at k = fs.lo + (k * fs.tolerance) in
    let cache = Campaign.Cache.create ~seed:fs.fseed in
    let bases = Campaign.grid_params (slice_axes fs) in
    let slices =
      List.mapi
        (fun i base ->
          let eval_k k = eval_point ~cache fs base (value_at k) in
          let lo_admit, hi_admit, found, evals, probes_run = search eval_k points in
          let found =
            Option.map
              (fun (admit_k, violate_k) ->
                { admit_at = value_at admit_k; violate_at = value_at violate_k })
              found
          in
          count_to reg "frontier.probes" probes_run;
          count_to reg "frontier.evals" evals;
          count_to reg "frontier.slices" 1;
          if Obs.enabled obs then
            Obs.emit obs ~at:Time.zero Obs.Campaign
              (Obs.Frontier_located
                 {
                   slice = i;
                   axis = axis_name fs.axis;
                   boundary =
                     (match found with Some b -> b.admit_at | None -> -1);
                   probes = probes_run;
                 });
          { slice = i; base; lo_admit; hi_admit; found; evals; probes_run })
        bases
    in
    let total_probes = List.fold_left (fun a s -> a + s.probes_run) 0 slices in
    Ok { fspec = fs; points; slices; total_probes }

(* Lattice bisection: endpoints first; on disagreement, maintain the
   invariant verdict(lo_k) = verdict(0) and verdict(hi_k) = verdict(K)
   while halving, ending on the adjacent pair where the verdict flips —
   within one tolerance step, in 2 + ceil(log2 points) evaluations. *)
let bisect_search eval_k points =
  let a0, p0 = eval_k 0 in
  let aK, pK = eval_k (points - 1) in
  if a0 = aK then (a0, aK, None, 2, p0 + pK)
  else begin
    let lo_k = ref 0 and hi_k = ref (points - 1) in
    let evals = ref 2 and probes = ref (p0 + pK) in
    while !hi_k - !lo_k > 1 do
      let mid = (!lo_k + !hi_k) / 2 in
      let am, pm = eval_k mid in
      incr evals;
      probes := !probes + pm;
      if am = a0 then lo_k := mid else hi_k := mid
    done;
    let admit_k, violate_k = if a0 then (!lo_k, !hi_k) else (!hi_k, !lo_k) in
    (a0, aK, Some (admit_k, violate_k), !evals, !probes)
  end

(* The exhaustive reference: every lattice point, first flip wins. *)
let scan_search eval_k points =
  let verdicts = Array.init points (fun k -> eval_k k) in
  let evals = points in
  let probes = Array.fold_left (fun a (_, p) -> a + p) 0 verdicts in
  let a0 = fst verdicts.(0) in
  let aK = fst verdicts.(points - 1) in
  let rec first_flip k =
    if k >= points then None
    else if fst verdicts.(k) <> a0 then
      Some (if a0 then (k - 1, k) else (k, k - 1))
    else first_flip (k + 1)
  in
  (a0, aK, first_flip 1, evals, probes)

let frontier ?obs fs = run_frontier ?obs fs ~search:bisect_search
let grid_scan ?obs fs = run_frontier ?obs fs ~search:scan_search

(* ------------------------------------------------------------------ *)
(* Frontier artifacts                                                  *)

let frontier_lines fr =
  let fs = fr.fspec in
  let header =
    J.to_string
      [
        ("frontier", J.Int 1);
        ("seed", J.Int fs.fseed);
        ("axis", J.Str (axis_name fs.axis));
        ("lo", J.Int fs.lo);
        ("hi", J.Int (fs.lo + ((fr.points - 1) * fs.tolerance)));
        ("tolerance", J.Int fs.tolerance);
        ("probes_per_point", J.Int fs.probes);
        ("points", J.Int fr.points);
        ("slices", J.Int (List.length fr.slices));
        ("grid", J.Str (Campaign.grid_axes (slice_axes fs)));
      ]
  in
  let slice_line s =
    J.to_string
      ([ ("slice", J.Int s.slice) ]
      @ Campaign.params_fields s.base
      @ [ ("lo_admit", J.Bool s.lo_admit); ("hi_admit", J.Bool s.hi_admit) ]
      @ (match s.found with
        | Some b -> [ ("admit_at", J.Int b.admit_at); ("violate_at", J.Int b.violate_at) ]
        | None -> [ ("no_boundary", J.Bool true) ])
      @ [ ("evals", J.Int s.evals); ("probes", J.Int s.probes_run) ])
  in
  let slice_lines = List.map slice_line fr.slices in
  let summary =
    J.to_string
      [
        ("slices", J.Int (List.length fr.slices));
        ("boundaries", J.Int (List.length (List.filter (fun s -> s.found <> None) fr.slices)));
        ("total_probes", J.Int fr.total_probes);
        ("fingerprint", J.Str (Fnv.to_hex (Fnv.hash64_lines slice_lines)));
      ]
  in
  (header :: slice_lines) @ [ summary ]

let is_frontier_artifact lines =
  match List.find_opt (fun l -> String.trim l <> "") lines with
  | None -> false
  | Some l -> (
    match J.parse l with Ok f -> J.int_of f "frontier" <> None | Error _ -> false)

(* Each of [entries] with its decoded parameters; a line that does not
   decode is named by its [key] field in the error. *)
let decode_params key entries =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | e :: rest -> (
      match Campaign.params_of_fields e.fields with
      | Ok p -> go ((e, p) :: acc) rest
      | Error m ->
        Error
          (Printf.sprintf "%s %s: %s" key
             (Option.fold ~none:"?" ~some:string_of_int (J.int_of e.fields key))
             m))
  in
  go [] entries

let render_frontier lines =
  let* objs, torn = parse_lines lines in
  let* () = if torn then torn_error else Ok () in
  match List.find_opt (has "frontier") objs with
  | None -> Error "not a frontier artifact (no frontier header)"
  | Some { fields = header; _ } ->
    let* slices = decode_params "slice" (List.filter (has "slice") objs) in
    let axis = Option.value ~default:"?" (J.str_of header "axis") in
    let summary = List.find_opt (has "total_probes") objs in
    let show v = if axis = "r" then Time.to_string v else string_of_int v in
    let buf = Buffer.create 1024 in
    Buffer.add_string buf
      (Printf.sprintf
         "frontier report: axis %s in [%s, %s] step %s, %s probes/point, %d slices%s\n"
         axis
         (match J.int_of header "lo" with Some v -> show v | None -> "?")
         (match J.int_of header "hi" with Some v -> show v | None -> "?")
         (match J.int_of header "tolerance" with Some v -> show v | None -> "?")
         (match J.int_of header "probes_per_point" with
         | Some v -> string_of_int v
         | None -> "?")
         (List.length slices)
         (match Option.bind summary (fun s -> J.int_of s.fields "total_probes") with
         | Some p -> Printf.sprintf ", %d probes total" p
         | None -> ""));
    Buffer.add_char buf '\n';
    let table =
      Table.create ~title:"admit/violate boundary"
        ~header:[ "slice"; "configuration"; "boundary"; "evals"; "probes" ]
    in
    List.iter
      (fun (e, (p : Campaign.params)) ->
        let istr k = match J.int_of e.fields k with Some v -> string_of_int v | None -> "?" in
        let marked name v = if axis = name then "*" else v in
        let config =
          Format.asprintf "%s/%s n=%d f=%s R=%s bw=%s %a share=%s" p.workload p.topology
            p.nodes
            (marked "f" (string_of_int p.f))
            (marked "r" (Time.to_string p.r))
            (marked "bandwidth" (string_of_int p.bandwidth_bps))
            Task.pp_criticality p.protect
            (Campaign.share_name p.control_share)
        in
        let boundary =
          match J.int_of e.fields "admit_at", J.int_of e.fields "violate_at" with
          | Some a, Some v ->
            if a > v then Printf.sprintf "admit >= %s (violate <= %s)" (show a) (show v)
            else Printf.sprintf "admit <= %s (violate >= %s)" (show a) (show v)
          | _ -> (
            match J.bool_of e.fields "lo_admit" with
            | Some true -> "all admit"
            | Some false -> "all violate"
            | None -> "?")
        in
        Table.add_row table [ istr "slice"; config; boundary; istr "evals"; istr "probes" ])
      slices;
    Buffer.add_string buf (Table.render table);
    Ok (Buffer.contents buf)

(* ------------------------------------------------------------------ *)
(* Reading campaign artifacts back                                     *)

let render_campaign a =
  let* () = if a.a_torn then torn_error else Ok () in
  let* verdicts = decode_params "trial" (List.map snd a.a_verdicts) in
  let verdict_is v (e, _) = J.str_of e.fields "verdict" = Some v in
  let tally v l = List.length (List.filter (verdict_is v) l) in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf
       "campaign report: %d trials — %d pass, %d violations, %d rejected, %d errors\n"
       (List.length verdicts) (tally "pass" verdicts) (tally "violation" verdicts)
       (tally "rejected" verdicts) (tally "error" verdicts));
  if a.a_fingerprint <> "" then
    Buffer.add_string buf (Printf.sprintf "fingerprint: %s\n" a.a_fingerprint);
  Buffer.add_char buf '\n';
  (* Per-configuration aggregation, first-seen (= grid) order. *)
  let key_of (p : Campaign.params) =
    Format.asprintf "%s/%s n=%d f=%d R=%dus bw=%d %a share=%s" p.workload p.topology
      p.nodes p.f p.r p.bandwidth_bps Task.pp_criticality p.protect
      (Campaign.share_name p.control_share)
  in
  let groups =
    List.fold_left
      (fun acc ((_, p) as v) ->
        let k = key_of p in
        if List.mem_assoc k acc then
          List.map (fun (k', vs) -> if k' = k then (k', v :: vs) else (k', vs)) acc
        else acc @ [ (k, [ v ]) ])
      [] verdicts
  in
  let table =
    Table.create ~title:"per configuration"
      ~header:[ "configuration"; "trials"; "viol"; "rej"; "worst recovery"; "max incorrect" ]
  in
  List.iter
    (fun (k, vs) ->
      let maxi key =
        List.fold_left
          (fun m (e, _) -> match J.int_of e.fields key with Some v -> max m v | None -> m)
          0 vs
      in
      Table.add_row table
        [
          k;
          string_of_int (List.length vs);
          string_of_int (tally "violation" vs);
          string_of_int (tally "rejected" vs);
          Time.to_string (maxi "worst_recovery_us");
          Time.to_string (maxi "incorrect_us");
        ])
    groups;
  Buffer.add_string buf (Table.render table);
  Buffer.add_char buf '\n';
  let r_of idx =
    match List.assoc_opt idx a.a_verdicts with
    | Some e -> Result.to_option (Campaign.params_of_fields e.fields)
    | None -> None
  in
  List.iter
    (fun (idx, e) ->
      let istr k = match J.int_of e.fields k with Some i -> string_of_int i | None -> "?" in
      match J.str_of e.fields "script" with
      | Some script ->
        Buffer.add_string buf
          (Printf.sprintf
             "violation (trial %d): %s\n\
             \  events %s (from %s), shrink runs %s, worst recovery %s vs R %s\n"
             idx script (istr "events") (istr "events_before") (istr "shrink_runs")
             (match J.int_of e.fields "worst_recovery_us" with
             | Some i -> Time.to_string i
             | None -> "?")
             (match r_of idx with Some p -> Time.to_string p.r | None -> "?"))
      | None -> ())
    a.a_violations;
  Ok (Buffer.contents buf)

let render_report lines =
  if is_frontier_artifact lines then render_frontier lines
  else
    let* a = parse_artifact lines in
    render_campaign a

let replay a index =
  let* () = if a.a_torn then torn_error else Ok () in
  match List.assoc_opt index a.a_verdicts with
  | None -> Error (Printf.sprintf "artifact records no trial %d" index)
  | Some e -> (
    match Campaign.trial_of_fields e.fields with
    | Error m -> Error (Printf.sprintf "trial %d: %s" index m)
    | Ok t ->
      let cache = Campaign.Cache.create ~seed:a.a_seed in
      Ok (t, Campaign.run_script ~cache t.params ~runtime_seed:t.runtime_seed t.script))
