type node_id = int

type link = {
  link_id : int;
  members : node_id list;
  bandwidth_bps : int;
  latency : Btr_util.Time.t;
}

(* Sweeps run on a dense numbering: node [i] is [ids.(i)], in declared
   order, and link [j] is [links_at.(j)], in ascending id. *)
type t = {
  node_list : node_id list;
  link_list : link list;
  by_id : (int, link) Hashtbl.t;
  pos : (node_id, int) Hashtbl.t;  (* node id -> node index *)
  ids : node_id array;
  links_at : link array;
  members_at : int array array;  (* link index -> member indices, declared order *)
  adj : int array array;  (* node index -> link indices, ascending id *)
}

(* Set-based duplicate detection: same verdict as the naive pairwise
   scan, linear instead of quadratic so fleet-scale (10^4-node)
   topologies construct in milliseconds. *)
let distinct xs =
  let seen = Hashtbl.create 64 in
  List.for_all
    (fun x ->
      if Hashtbl.mem seen x then false
      else begin
        Hashtbl.replace seen x ();
        true
      end)
    xs

let create ~nodes ~links =
  if not (distinct nodes) then invalid_arg "Topology.create: duplicate node ids";
  if not (distinct (List.map (fun l -> l.link_id) links)) then
    invalid_arg "Topology.create: duplicate link ids";
  let node_set = Hashtbl.create 64 in
  List.iter (fun n -> Hashtbl.replace node_set n ()) nodes;
  let check_link l =
    if List.length l.members < 2 then
      invalid_arg (Printf.sprintf "Topology.create: link %d has < 2 members" l.link_id);
    if not (distinct l.members) then
      invalid_arg (Printf.sprintf "Topology.create: link %d repeats a member" l.link_id);
    if l.bandwidth_bps <= 0 then
      invalid_arg (Printf.sprintf "Topology.create: link %d bandwidth <= 0" l.link_id);
    List.iter
      (fun m ->
        if not (Hashtbl.mem node_set m) then
          invalid_arg
            (Printf.sprintf "Topology.create: link %d member %d is not a node"
               l.link_id m))
      l.members
  in
  List.iter check_link links;
  let by_id = Hashtbl.create 16 in
  List.iter (fun l -> Hashtbl.replace by_id l.link_id l) links;
  let ids = Array.of_list nodes in
  let pos = Hashtbl.create 64 in
  Array.iteri (fun i n -> Hashtbl.replace pos n i) ids;
  let links_at =
    Array.of_list (List.sort (fun a b -> Int.compare a.link_id b.link_id) links)
  in
  let members_at =
    Array.map (fun l -> Array.of_list (List.map (Hashtbl.find pos) l.members)) links_at
  in
  (* Walking the links in descending id and consing leaves every node's
     links in ascending id, which fixes the expansion order. *)
  let adj = Array.make (Array.length ids) [] in
  for j = Array.length links_at - 1 downto 0 do
    Array.iter (fun i -> adj.(i) <- j :: adj.(i)) members_at.(j)
  done;
  {
    node_list = nodes;
    link_list = links;
    by_id;
    pos;
    ids;
    links_at;
    members_at;
    adj = Array.map Array.of_list adj;
  }

let nodes t = t.node_list
let links t = t.link_list
let node_count t = List.length t.node_list

let find_link t id =
  match Hashtbl.find_opt t.by_id id with
  | Some l -> l
  | None -> invalid_arg (Printf.sprintf "Topology.find_link: no link %d" id)

let links_of_node t n =
  match Hashtbl.find_opt t.pos n with
  | Some i -> Array.fold_right (fun j acc -> t.links_at.(j) :: acc) t.adj.(i) []
  | None -> []

let neighbors t n =
  let out =
    List.concat_map
      (fun l -> List.filter (fun m -> m <> n) l.members)
      (links_of_node t n)
  in
  List.sort_uniq Int.compare out

(* {2 Breadth-first sweeps}

   Every route query is one sweep from its source: links in ascending
   id, members in declared order, first encounter wins. A sweep expands
   each link at most once. The first expansion of a link reaches every
   member that any later expansion could reach (all of them, except
   unusable ones, which no expansion relays through), so later
   expansions would find nothing new: skipping them leaves every
   predecessor, cost and route unchanged, and makes a sweep
   O(nodes + memberships) instead of O(n²) on a bus.

   Each sweep marks nodes and links in byte maps and queues node
   indices in one array, since every node is queued at most once.
   [expand here j] is called once per link [j] expanded from node
   [here], and the function it returns once per node [m] first reached
   through that expansion: it records [m] and returns [false] to stop
   the sweep. Unusable nodes are reached as endpoints but never relay. *)
let sweep t ~usable ~src ~expand =
  let n = Array.length t.ids in
  let seen = Bytes.make n '\000' in
  let spent = Bytes.make (Array.length t.links_at) '\000' in
  let queue = Array.make n src in
  let head = ref 0 and tail = ref 1 in
  Bytes.set seen src '\001';
  let go = ref true in
  while !go && !head < !tail do
    let here = queue.(!head) in
    incr head;
    Array.iter
      (fun j ->
        if !go && Bytes.get spent j = '\000' then begin
          Bytes.set spent j '\001';
          let reach = expand here j in
          Array.iter
            (fun m ->
              if !go && Bytes.get seen m = '\000' then begin
                Bytes.set seen m '\001';
                if not (reach m) then go := false
                else if usable t.ids.(m) then begin
                  queue.(!tail) <- m;
                  incr tail
                end
              end)
            t.members_at.(j)
        end)
      t.adj.(here)
  done

(* One sweep from [src] yields, for every destination, the route a
   sweep stopped at that destination would record: stopping early
   cannot change predecessors already recorded. [prev.(i)] is the node
   index [i] was reached from (-1 if unreached, and for the source) and
   [via.(i)] the link index it was reached through. *)
type paths = {
  p_topo : t;
  p_src : node_id;
  prev : int array;
  via : int array;
}

let reached p n =
  n = p.p_src
  ||
  match Hashtbl.find_opt p.p_topo.pos n with
  | Some i -> p.prev.(i) >= 0
  | None -> false

let path_to p ~dst =
  if dst = p.p_src then Some []
  else if not (reached p dst) then None
  else begin
    let rec rebuild acc i =
      if p.prev.(i) < 0 then acc
      else rebuild (p.p_topo.links_at.(p.via.(i)) :: acc) p.prev.(i)
    in
    Some (rebuild [] (Hashtbl.find p.p_topo.pos dst))
  end

(* A sweep recording predecessors, stopped once [stop_at] (a node
   index, or -1 for never) is reached. *)
let sweep_paths t ~usable ~src ~stop_at =
  let n = Array.length t.ids in
  let p = { p_topo = t; p_src = src; prev = Array.make n (-1); via = Array.make n (-1) } in
  (match Hashtbl.find_opt t.pos src with
  | None -> ()
  | Some s ->
    sweep t ~usable ~src:s ~expand:(fun here j m ->
        p.prev.(m) <- here;
        p.via.(m) <- j;
        m <> stop_at));
  p

let paths_from t ~usable ~src = sweep_paths t ~usable ~src ~stop_at:(-1)

let router t ~usable =
  let sweeps = Hashtbl.create 16 in
  fun ~src ~dst ->
    let p =
      match Hashtbl.find_opt sweeps src with
      | Some p -> p
      | None ->
        let p = paths_from t ~usable ~src in
        Hashtbl.replace sweeps src p;
        p
    in
    path_to p ~dst

let route_gen t ~usable ~src ~dst =
  if src = dst then Some []
  else
    match Hashtbl.find_opt t.pos dst with
    | None -> None
    | Some d -> path_to (sweep_paths t ~usable ~src ~stop_at:d) ~dst

let route t ~src ~dst = route_gen t ~usable:(fun _ -> true) ~src ~dst

let route_avoiding t ~avoid ~src ~dst =
  route_gen t ~usable:(fun n -> not (List.mem n avoid)) ~src ~dst

let next_hop_node t ~here ~link ~dst =
  if List.mem dst link.members then dst
  else begin
    (* Pick the member (other than [here]) that is nearest to [dst];
       deterministic because members are listed in a fixed order. *)
    let candidates = List.filter (fun m -> m <> here) link.members in
    let dist n =
      match route t ~src:n ~dst with
      | Some path -> List.length path
      | None -> max_int
    in
    match candidates with
    | [] -> invalid_arg "Topology.next_hop_node: degenerate link"
    | c :: cs -> List.fold_left (fun best m -> if dist m < dist best then m else best) c cs
  end

(* The cost of a destination is [link_cost] summed along its route,
   accumulated during the sweep rather than rebuilt per destination;
   [min_int] marks unreached nodes. *)
type costs = { c_topo : t; cost : Btr_util.Time.t array }

let cost_from t ~usable ~src ~link_cost =
  let c = { c_topo = t; cost = Array.make (Array.length t.ids) min_int } in
  (match Hashtbl.find_opt t.pos src with
  | None -> ()
  | Some s ->
    c.cost.(s) <- Btr_util.Time.zero;
    sweep t ~usable ~src:s ~expand:(fun here j ->
        let via = Btr_util.Time.add c.cost.(here) (link_cost t.links_at.(j)) in
        fun m ->
          c.cost.(m) <- via;
          true));
  c

let cost_to c n =
  match Hashtbl.find_opt c.c_topo.pos n with
  | Some i when c.cost.(i) <> min_int -> Some c.cost.(i)
  | _ -> None

let connected_without t broken =
  let broken_set = Hashtbl.create 8 in
  List.iter (fun n -> Hashtbl.replace broken_set n ()) broken;
  let alive =
    List.filter (fun n -> not (Hashtbl.mem broken_set n)) t.node_list
  in
  match alive with
  | [] -> true
  | first :: rest ->
    (* One BFS reaches exactly the set the old per-destination
       [route_gen] probes reached: every alive destination is usable,
       so "reachable as an endpoint" and "reachable as a relay"
       coincide for the nodes we query. *)
    let p =
      paths_from t ~usable:(fun m -> not (Hashtbl.mem broken_set m)) ~src:first
    in
    List.for_all (fun n -> reached p n) rest

let pp ppf t =
  Format.fprintf ppf "@[<v>topology: %d nodes, %d links@," (node_count t)
    (List.length t.link_list);
  List.iter
    (fun l ->
      Format.fprintf ppf "  link %d: members=[%s] bw=%dB/s lat=%a@," l.link_id
        (String.concat "," (List.map string_of_int l.members))
        l.bandwidth_bps Btr_util.Time.pp l.latency)
    t.link_list;
  Format.fprintf ppf "@]"

let fully_connected ~n ~bandwidth_bps ~latency =
  let nodes = List.init n Fun.id in
  let links = ref [] in
  let id = ref 0 in
  for a = 0 to n - 1 do
    for b = a + 1 to n - 1 do
      links := { link_id = !id; members = [ a; b ]; bandwidth_bps; latency } :: !links;
      incr id
    done
  done;
  create ~nodes ~links:(List.rev !links)

let ring ~n ~bandwidth_bps ~latency =
  let nodes = List.init n Fun.id in
  let links =
    List.init n (fun i ->
        { link_id = i; members = [ i; (i + 1) mod n ]; bandwidth_bps; latency })
  in
  create ~nodes ~links

let star ~n ~hub ~bandwidth_bps ~latency =
  let nodes = List.init n Fun.id in
  let spokes = List.filter (fun i -> i <> hub) nodes in
  let links =
    List.mapi
      (fun idx spoke ->
        { link_id = idx; members = [ hub; spoke ]; bandwidth_bps; latency })
      spokes
  in
  create ~nodes ~links

let dual_bus ~n ~bandwidth_bps ~latency =
  let nodes = List.init n Fun.id in
  let bus id = { link_id = id; members = nodes; bandwidth_bps; latency } in
  create ~nodes ~links:[ bus 0; bus 1 ]
