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
   them, except avoided ones, which no expansion relays through), so
   later expansions would find nothing new: skipping them leaves every
   predecessor unchanged, and makes a sweep O(nodes + memberships)
   instead of O(n²) on a bus.

   [prev.(i)] is the node index [i] was first reached from (-1 while
   unreached; the source is its own predecessor) and [via.(i)] the
   link index it was reached through, so the route to [i] is the chain
   of predecessors back to the source, and each hop of it delivers to
   the node the sweep reached through it. Nodes are queued in one
   array, since each is queued at most once. Avoided nodes are reached
   as endpoints but never relay; the source always expands. [relays]
   marks every node some other node was first reached from, the source
   excepted, and [order.(0 .. queued - 1)] are the queued nodes in the
   order they were queued, each after its predecessor. *)
type sweep = {
  prev : int array;
  via : int array;
  relays : Bytes.t;
  order : int array;
  queued : int;
}

(* The index of node [n], or -1 when [n] is not a node. Generators
   declare nodes 0..n-1 in order, so an id is usually its own index:
   that is checked first, without hashing. *)
let index t n =
  if n >= 0 && n < Array.length t.ids && t.ids.(n) = n then n
  else match Inttbl.find t.pos n with i -> i | exception Not_found -> -1

(* The node indices of [avoid] that are nodes. *)
let index_all t avoid =
  Array.of_list (List.filter (fun i -> i >= 0) (List.map (index t) avoid))

(* Avoid sets hold at most f nodes, so membership is a scan. These
   loops take every value they read as an argument: a local recursive
   function would allocate its closure on every call. *)
let rec avoided_from avoid m k =
  k < Array.length avoid && (Array.unsafe_get avoid k = m || avoided_from avoid m (k + 1))

let avoided avoid m = avoided_from avoid m 0

(* The sweep loop over caller-supplied arrays: [prev] and [via] filled
   with -1, [spent] and [relays] with zeros. Returns how many nodes it
   queued, [queue.(0)] being [src]. *)
let run t ~avoid ~src ~prev ~via ~spent ~relays ~queue =
  let head = ref 0 and tail = ref 1 in
  queue.(0) <- src;
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
            if here <> src then Bytes.set relays here '\001';
            if not (avoided avoid m) then begin
              queue.(!tail) <- m;
              incr tail
            end
          end
        done
      end
    done
  done;
  !tail

let sweep t ~avoid ~src =
  let n = Array.length t.ids in
  let prev = Array.make n (-1) and via = Array.make n (-1) in
  let relays = Bytes.make n '\000' and order = Array.make n src in
  let queued =
    run t ~avoid ~src ~prev ~via ~spent:(Bytes.make (Array.length t.links_at) '\000') ~relays
      ~queue:order
  in
  { prev; via; relays; order; queued }

(* Stands for a sweep not run yet, so tables of sweeps hold no options. *)
let unswept = { prev = [||]; via = [||]; relays = Bytes.empty; order = [||]; queued = 0 }

(* The fault-free sweep from each source, run on first use. A sweep
   that avoids a set A is the fault-free one whenever no node of A
   relays in it: its queue is the fault-free queue without A, and every
   link a node of A spent there had no unreached member left. So a
   router reuses the fault-free sweep of every source whose relays its
   avoid set misses, and sweeps again only the others. *)
type sweeps = { s_topo : t; free : sweep array }

let sweeps t = { s_topo = t; free = Array.make (Array.length t.ids) unswept }
let sweeps_topology s = s.s_topo

let free_sweep s i =
  let p = s.free.(i) in
  if p != unswept then p
  else begin
    let p = sweep s.s_topo ~avoid:[||] ~src:i in
    s.free.(i) <- p;
    p
  end

let rec relays_from (p : sweep) avoid k =
  k < Array.length avoid
  && (Bytes.get p.relays (Array.unsafe_get avoid k) <> '\000' || relays_from p avoid (k + 1))

let relays_any p avoid = relays_from p avoid 0

type hop = { link : link; next : node_id }

(* The route table: one sweep per source node index, the shared
   fault-free one where it serves, found on the source's first query
   and kept. *)
type router = { r_sweeps : sweeps; avoid : int array; own : sweep array }

(* A router that avoids nothing reads and fills the fault-free table
   itself. *)
let router s ~avoid =
  let avoid = index_all s.s_topo avoid in
  {
    r_sweeps = s;
    avoid;
    own = (if Array.length avoid = 0 then s.free else Array.make (Array.length s.free) unswept);
  }

let sweep_from r i =
  let p = r.own.(i) in
  if p != unswept then p
  else begin
    let free = free_sweep r.r_sweeps i in
    let p =
      if relays_any free r.avoid then sweep r.r_sweeps.s_topo ~avoid:r.avoid ~src:i else free
    in
    r.own.(i) <- p;
    p
  end

let path r ~src ~dst =
  if src = dst then Some []
  else
    let t = r.r_sweeps.s_topo in
    let s = index t src and d = index t dst in
    if s < 0 || d < 0 then None
    else
      let p = sweep_from r s in
      if p.prev.(d) < 0 then None
      else
        let rec rebuild acc i =
          if i = s then acc
          else rebuild ({ link = t.links_at.(p.via.(i)); next = t.ids.(i) } :: acc) p.prev.(i)
        in
        Some (rebuild [] d)

(* Sums [link_cost] back along the predecessors, so no path list is
   built. *)
let path_cost r ~link_cost ~src ~dst =
  if src = dst then Btr_util.Time.zero
  else
    let t = r.r_sweeps.s_topo in
    let s = index t src and d = index t dst in
    if s < 0 || d < 0 then Btr_util.Time.infinity
    else
      let p = sweep_from r s in
      if p.prev.(d) < 0 then Btr_util.Time.infinity
      else begin
        let cost = ref Btr_util.Time.zero and i = ref d in
        while !i <> s do
          cost := Btr_util.Time.add !cost (link_cost t.links_at.(p.via.(!i)));
          i := p.prev.(!i)
        done;
        !cost
      end

(* Link connectivity is an equivalence relation over the nodes a
   router does not avoid, so one sweep from the first of them reaching
   every other is exactly "every pair is routable". *)
let rec first_kept avoid n i = if i < n && avoided avoid i then first_kept avoid n (i + 1) else i

let rec all_reached avoid (p : sweep) i =
  i >= Array.length p.prev || ((avoided avoid i || p.prev.(i) >= 0) && all_reached avoid p (i + 1))

let connected r =
  let s = first_kept r.avoid (Array.length r.own) 0 in
  s >= Array.length r.own || all_reached r.avoid (sweep_from r s) 0

(* {2 The largest route cost among survivors}

   For every source, its fault-free sweep's [k] costliest destinations
   (cost then node index, descending cost), [len] of them when fewer
   are reachable. When an avoid set of fewer than [k] nodes misses a
   source's relays, the source's sweep is the fault-free one, and its
   costliest destination outside the set is among those [k]: the first
   listed one not avoided. Every other source is swept again, into
   scratch arrays kept here, so a query allocates only its avoid
   array. *)
type spread = {
  sp_sweeps : sweeps;
  k : int;
  lcost : Btr_util.Time.t array;  (* link index -> cost *)
  top_cost : Btr_util.Time.t array;  (* source * k + rank *)
  top_dst : int array;
  len : int array;
  cost : Btr_util.Time.t array;  (* scratch, node index -> cost *)
  s_prev : int array;
  s_via : int array;
  s_spent : Bytes.t;
  s_relays : Bytes.t;
  s_queue : int array;
}

(* Costs along [order], where each node's predecessor comes first. *)
let costs_along sp ~prev ~via ~order ~queued =
  sp.cost.(order.(0)) <- Btr_util.Time.zero;
  for q = 1 to queued - 1 do
    let m = order.(q) in
    sp.cost.(m) <- Btr_util.Time.add sp.cost.(prev.(m)) sp.lcost.(via.(m))
  done

let spread s ~link_cost ~k =
  if k < 1 then invalid_arg "Topology.spread: k < 1";
  let t = s.s_topo in
  let n = Array.length t.ids and links = Array.length t.links_at in
  let sp =
    {
      sp_sweeps = s;
      k;
      lcost = Array.map link_cost t.links_at;
      top_cost = Array.make (n * k) Btr_util.Time.zero;
      top_dst = Array.make (n * k) (-1);
      len = Array.make n 0;
      cost = Array.make n Btr_util.Time.zero;
      s_prev = Array.make n (-1);
      s_via = Array.make n (-1);
      s_spent = Bytes.make links '\000';
      s_relays = Bytes.make n '\000';
      s_queue = Array.make n 0;
    }
  in
  for src = 0 to n - 1 do
    let p = free_sweep s src in
    costs_along sp ~prev:p.prev ~via:p.via ~order:p.order ~queued:p.queued;
    let base = src * k in
    for q = 1 to p.queued - 1 do
      let m = p.order.(q) in
      let c = sp.cost.(m) in
      (* Insertion into the descending top list; a later destination
         never displaces an equal cost. *)
      let l = sp.len.(src) in
      if l < k || c > sp.top_cost.(base + l - 1) then begin
        let r = ref (if l < k then l else k - 1) in
        while !r > 0 && c > sp.top_cost.(base + !r - 1) do
          sp.top_cost.(base + !r) <- sp.top_cost.(base + !r - 1);
          sp.top_dst.(base + !r) <- sp.top_dst.(base + !r - 1);
          decr r
        done;
        sp.top_cost.(base + !r) <- c;
        sp.top_dst.(base + !r) <- m;
        if l < k then sp.len.(src) <- l + 1
      end
    done
  done;
  sp

(* The costliest route from [src] to a node outside [avoid], swept
   again into the scratch arrays. *)
let resweep_max sp ~avoid ~src =
  let t = sp.sp_sweeps.s_topo in
  let queued =
    run t ~avoid ~src ~prev:sp.s_prev ~via:sp.s_via ~spent:sp.s_spent ~relays:sp.s_relays
      ~queue:sp.s_queue
  in
  costs_along sp ~prev:sp.s_prev ~via:sp.s_via ~order:sp.s_queue ~queued;
  let worst = ref Btr_util.Time.zero in
  for q = 1 to queued - 1 do
    worst := Btr_util.Time.max !worst sp.cost.(sp.s_queue.(q))
  done;
  Array.fill sp.s_prev 0 (Array.length sp.s_prev) (-1);
  Array.fill sp.s_via 0 (Array.length sp.s_via) (-1);
  Bytes.fill sp.s_spent 0 (Bytes.length sp.s_spent) '\000';
  Bytes.fill sp.s_relays 0 (Bytes.length sp.s_relays) '\000';
  !worst

(* The first of [src]'s listed destinations outside [avoid]. *)
let rec listed_max sp avoid src r =
  if r >= sp.len.(src) then Btr_util.Time.zero
  else if avoided avoid sp.top_dst.((src * sp.k) + r) then listed_max sp avoid src (r + 1)
  else sp.top_cost.((src * sp.k) + r)

let max_path_cost sp ~avoid =
  let avoid = index_all sp.sp_sweeps.s_topo avoid in
  let few = Array.length avoid < sp.k in
  let worst = ref Btr_util.Time.zero in
  for src = 0 to Array.length sp.len - 1 do
    if not (avoided avoid src) then begin
      let c =
        if (few || sp.len.(src) < sp.k) && not (relays_any (free_sweep sp.sp_sweeps src) avoid)
        then listed_max sp avoid src 0
        else resweep_max sp ~avoid ~src
      in
      worst := Btr_util.Time.max !worst c
    end
  done;
  !worst

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
