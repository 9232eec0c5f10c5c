module Inttbl = Btr_util.Inttbl

type node_id = int

type link = {
  link_id : int;
  members : node_id list;
  bandwidth_bps : int;
  latency : Btr_util.Time.t;
}

(* Sweeps run on a dense numbering: node [i] is [ids.(i)], in declared
   order, and link [j] is [links_at.(j)], in ascending id. Node ids are
   not dense (an edit may add any id), so ids map to indices through an
   int-keyed hash table rather than an array offset by the smallest. *)
type t = {
  node_list : node_id list;
  link_list : link list;
  by_id : link Inttbl.t;
  pos : int Inttbl.t;  (* node id -> node index *)
  ids : node_id array;
  links_at : link array;
  members_at : int array array;  (* link index -> member indices, declared order *)
  adj : int array array;  (* node index -> link indices, ascending id *)
}

(* Set-based duplicate detection: same verdict as the naive pairwise
   scan, linear instead of quadratic so fleet-scale (10^4-node)
   topologies construct in milliseconds. *)
let distinct xs =
  let seen = Inttbl.create 64 in
  List.for_all
    (fun x ->
      if Inttbl.mem seen x then false
      else begin
        Inttbl.replace seen x ();
        true
      end)
    xs

let create ~nodes ~links =
  if not (distinct nodes) then invalid_arg "Topology.create: duplicate node ids";
  if not (distinct (List.map (fun l -> l.link_id) links)) then
    invalid_arg "Topology.create: duplicate link ids";
  let ids = Array.of_list nodes in
  let pos = Inttbl.create 64 in
  Array.iteri (fun i n -> Inttbl.replace pos n i) ids;
  let check_link l =
    if List.length l.members < 2 then
      invalid_arg (Printf.sprintf "Topology.create: link %d has < 2 members" l.link_id);
    if not (distinct l.members) then
      invalid_arg (Printf.sprintf "Topology.create: link %d repeats a member" l.link_id);
    if l.bandwidth_bps <= 0 then
      invalid_arg (Printf.sprintf "Topology.create: link %d bandwidth <= 0" l.link_id);
    if l.latency < 0 then
      invalid_arg (Printf.sprintf "Topology.create: link %d latency < 0" l.link_id);
    List.iter
      (fun m ->
        if not (Inttbl.mem pos m) then
          invalid_arg
            (Printf.sprintf "Topology.create: link %d member %d is not a node"
               l.link_id m))
      l.members
  in
  List.iter check_link links;
  let by_id = Inttbl.create 16 in
  List.iter (fun l -> Inttbl.replace by_id l.link_id l) links;
  let links_at =
    Array.of_list (List.sort (fun a b -> Int.compare a.link_id b.link_id) links)
  in
  let members_at =
    Array.map (fun l -> Array.of_list (List.map (Inttbl.find pos) l.members)) links_at
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
  match Inttbl.find_opt t.by_id id with
  | Some l -> l
  | None -> invalid_arg (Printf.sprintf "Topology.find_link: no link %d" id)

let links_of_node t n =
  match Inttbl.find_opt t.pos n with
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

   Every route is recorded by one sweep from its source: links in
   ascending id, members in declared order, first encounter wins. A
   sweep expands each link at most once. The first expansion of a link
   reaches every member that any later expansion could reach (all of
   them, except unusable ones, which no expansion relays through), so
   later expansions would find nothing new: skipping them leaves every
   predecessor unchanged, and makes a sweep O(nodes + memberships)
   instead of O(n²) on a bus.

   [prev.(i)] is the node index [i] was first reached from (-1 while
   unreached; the source is its own predecessor) and [via.(i)] the
   link index it was reached through, so the route to [i] is the chain
   of predecessors back to the source, and each hop of it delivers to
   the node the sweep reached through it. Nodes are queued in one
   array, since each is queued at most once. Unusable nodes are reached
   as endpoints but never relay. *)
type sweep = { prev : int array; via : int array }

let sweep t ~usable ~src =
  let n = Array.length t.ids in
  let prev = Array.make n (-1) and via = Array.make n (-1) in
  let spent = Bytes.make (Array.length t.links_at) '\000' in
  let queue = Array.make n src in
  let head = ref 0 and tail = ref 1 in
  prev.(src) <- src;
  while !head < !tail do
    let here = queue.(!head) in
    incr head;
    let links = t.adj.(here) in
    for k = 0 to Array.length links - 1 do
      let j = links.(k) in
      if Bytes.get spent j = '\000' then begin
        Bytes.set spent j '\001';
        let members = t.members_at.(j) in
        for i = 0 to Array.length members - 1 do
          let m = members.(i) in
          if prev.(m) < 0 then begin
            prev.(m) <- here;
            via.(m) <- j;
            if usable t.ids.(m) then begin
              queue.(!tail) <- m;
              incr tail
            end
          end
        done
      end
    done
  done;
  { prev; via }

type hop = { link : link; next : node_id }

(* The route table: one sweep per source node index, run on the
   source's first query and kept. *)
type router = { r_topo : t; r_usable : node_id -> bool; sweeps : sweep option array }

let router t ~usable =
  { r_topo = t; r_usable = usable; sweeps = Array.make (Array.length t.ids) None }

(* The index of node [n], or -1 when [n] is not a node. Generators
   declare nodes 0..n-1 in order, so an id is usually its own index:
   that is checked first, without hashing. *)
let index t n =
  if n >= 0 && n < Array.length t.ids && t.ids.(n) = n then n
  else match Inttbl.find t.pos n with i -> i | exception Not_found -> -1

let sweep_from r s =
  match r.sweeps.(s) with
  | Some p -> p
  | None ->
    let p = sweep r.r_topo ~usable:r.r_usable ~src:s in
    r.sweeps.(s) <- Some p;
    p

let path r ~src ~dst =
  if src = dst then Some []
  else
    let s = index r.r_topo src and d = index r.r_topo dst in
    if s < 0 || d < 0 then None
    else
      let p = sweep_from r s in
      if p.prev.(d) < 0 then None
      else
        let rec rebuild acc i =
          if i = s then acc
          else
            rebuild
              ({ link = r.r_topo.links_at.(p.via.(i)); next = r.r_topo.ids.(i) } :: acc)
              p.prev.(i)
        in
        Some (rebuild [] d)

(* Sums [link_cost] back along the predecessors, so no path list is
   built. *)
let path_cost r ~link_cost ~src ~dst =
  if src = dst then Some Btr_util.Time.zero
  else
    let s = index r.r_topo src and d = index r.r_topo dst in
    if s < 0 || d < 0 then None
    else
      let p = sweep_from r s in
      if p.prev.(d) < 0 then None
      else begin
        let cost = ref Btr_util.Time.zero and i = ref d in
        while !i <> s do
          cost := Btr_util.Time.add !cost (link_cost r.r_topo.links_at.(p.via.(!i)));
          i := p.prev.(!i)
        done;
        Some !cost
      end

(* Link connectivity is an equivalence relation over usable nodes, so
   one sweep from the first survivor reaching every other survivor is
   exactly "every pair is routable". *)
let connected_without t broken =
  let broken_set = Inttbl.create 8 in
  List.iter (fun n -> Inttbl.replace broken_set n ()) broken;
  let usable n = not (Inttbl.mem broken_set n) in
  match List.filter usable t.node_list with
  | [] -> true
  | first :: rest ->
    let p = sweep t ~usable ~src:(index t first) in
    List.for_all (fun n -> p.prev.(index t n) >= 0) rest

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
