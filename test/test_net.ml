open Btr_util
open Btr_net
module Engine = Btr_sim.Engine

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Topology *)

let test_topology_validation () =
  let link id members =
    { Topology.link_id = id; members; bandwidth_bps = 1000; latency = Time.us 10 }
  in
  Alcotest.check_raises "unknown member"
    (Invalid_argument "Topology.create: link 0 member 9 is not a node") (fun () ->
      ignore (Topology.create ~nodes:[ 0; 1 ] ~links:[ link 0 [ 0; 9 ] ]));
  Alcotest.check_raises "single-member link"
    (Invalid_argument "Topology.create: link 0 has < 2 members") (fun () ->
      ignore (Topology.create ~nodes:[ 0; 1 ] ~links:[ link 0 [ 0 ] ]));
  Alcotest.check_raises "duplicate nodes"
    (Invalid_argument "Topology.create: duplicate node ids") (fun () ->
      ignore (Topology.create ~nodes:[ 0; 0 ] ~links:[]))

let test_generators () =
  let fc = Topology.fully_connected ~n:4 ~bandwidth_bps:1000 ~latency:(Time.us 1) in
  check_int "fc links" 6 (List.length (Topology.links fc));
  let ring = Topology.ring ~n:5 ~bandwidth_bps:1000 ~latency:(Time.us 1) in
  check_int "ring links" 5 (List.length (Topology.links ring));
  check_int "ring degree" 2 (List.length (Topology.neighbors ring 0));
  let star = Topology.star ~n:5 ~hub:0 ~bandwidth_bps:1000 ~latency:(Time.us 1) in
  check_int "star hub degree" 4 (List.length (Topology.neighbors star 0));
  check_int "star spoke degree" 1 (List.length (Topology.neighbors star 3));
  let db = Topology.dual_bus ~n:6 ~bandwidth_bps:1000 ~latency:(Time.us 1) in
  check_int "dual bus links" 2 (List.length (Topology.links db));
  check_int "dual bus everyone adjacent" 5 (List.length (Topology.neighbors db 2))

let routes ?(avoid = []) topo = Topology.router (Topology.sweeps topo) ~avoid

let test_routing () =
  let ring = Topology.ring ~n:6 ~bandwidth_bps:1000 ~latency:(Time.us 1) in
  (match Topology.path (routes ring) ~src:0 ~dst:3 with
  | Some path ->
    check_int "ring 0->3 hops" 3 (List.length path);
    Alcotest.(check (list int)) "ring 0->3 relays" [ 1; 2; 3 ]
      (List.map (fun (h : Topology.hop) -> h.next) path)
  | None -> Alcotest.fail "route expected");
  (match Topology.path (routes ring) ~src:2 ~dst:2 with
  | Some [] -> ()
  | _ -> Alcotest.fail "self route should be empty");
  match Topology.path (routes ~avoid:[ 1; 5 ] ring) ~src:0 ~dst:3 with
  | None -> ()
  | Some _ -> Alcotest.fail "0->3 must be cut when 1 and 5 cannot relay"

let test_connected_without () =
  let star = Topology.star ~n:5 ~hub:0 ~bandwidth_bps:1000 ~latency:(Time.us 1) in
  check_bool "star loses hub" false (Topology.connected (routes ~avoid:[ 0 ] star));
  check_bool "star loses spoke ok" true (Topology.connected (routes ~avoid:[ 3 ] star));
  let fc = Topology.fully_connected ~n:4 ~bandwidth_bps:1000 ~latency:(Time.us 1) in
  check_bool "clique survives any single failure" true
    (Topology.connected (routes ~avoid:[ 2 ] fc))

(* Net *)

let mk_net ?(n = 3) ?(bw = 1_000_000) ?(lat = Time.us 100) () =
  let e = Engine.create () in
  let topo = Topology.fully_connected ~n ~bandwidth_bps:bw ~latency:lat in
  (e, Net.create e topo ())

let test_send_receive () =
  let e, net = mk_net () in
  let got = ref None in
  Net.set_handler net 1 (fun r -> got := Some r);
  check_bool "send accepted" true
    (Net.send net ~src:0 ~dst:1 ~cls:Net.Data ~size_bytes:100 "hello");
  Engine.run e;
  match !got with
  | Some r ->
    Alcotest.(check string) "payload" "hello" r.Net.payload;
    check_int "src" 0 r.Net.src;
    check_bool "took positive time" true (r.Net.delivered_at > Time.zero)
  | None -> Alcotest.fail "message not delivered"

let test_latency_model () =
  (* 1 MB/s link, default shares split between 2 members, 80% data:
     rate = 400_000 B/s, so 4000 bytes serialize in 10 ms + 100us prop. *)
  let e, net = mk_net () in
  let got = ref None in
  Net.set_handler net 1 (fun r -> got := Some r);
  ignore (Net.send net ~src:0 ~dst:1 ~cls:Net.Data ~size_bytes:4000 ());
  Engine.run e;
  match !got with
  | Some r ->
    let expect =
      Time.add
        (Time.us (4000 * 1_000_000 / Net.reserved_rate net
                    (List.hd (Topology.links_of_node (Net.topology net) 0))
                    Net.Data))
        (Time.us 100)
    in
    check_int "serialization + propagation" expect r.Net.delivered_at
  | None -> Alcotest.fail "not delivered"

let test_queueing () =
  (* Two back-to-back sends from the same node serialize sequentially. *)
  let e, net = mk_net () in
  let arrivals = ref [] in
  Net.set_handler net 1 (fun r -> arrivals := r.Net.delivered_at :: !arrivals);
  ignore (Net.send net ~src:0 ~dst:1 ~cls:Net.Data ~size_bytes:4000 ());
  ignore (Net.send net ~src:0 ~dst:1 ~cls:Net.Data ~size_bytes:4000 ());
  Engine.run e;
  match List.rev !arrivals with
  | [ a; b ] ->
    check_bool "second message queues" true (Time.sub b a >= Time.ms 9)
  | l -> Alcotest.failf "expected 2 deliveries, got %d" (List.length l)

let test_classes_do_not_queue_against_each_other () =
  let e, net = mk_net () in
  let arrivals = ref [] in
  Net.set_handler net 1 (fun r -> arrivals := (r.Net.cls, r.Net.delivered_at) :: !arrivals);
  ignore (Net.send net ~src:0 ~dst:1 ~cls:Net.Data ~size_bytes:40_000 ());
  ignore (Net.send net ~src:0 ~dst:1 ~cls:Net.Control ~size_bytes:100 ());
  Engine.run e;
  let control_at =
    List.assoc Net.Control (List.map (fun (c, t) -> (c, t)) !arrivals)
  in
  let data_at = List.assoc Net.Data !arrivals in
  check_bool "control cuts past the data queue" true (control_at < data_at)

let test_multi_hop () =
  let e = Engine.create () in
  let topo = Topology.ring ~n:4 ~bandwidth_bps:1_000_000 ~latency:(Time.us 50) in
  let net = Net.create e topo () in
  let got = ref None in
  Net.set_handler net 2 (fun r -> got := Some r);
  ignore (Net.send net ~src:0 ~dst:2 ~cls:Net.Data ~size_bytes:100 ());
  Engine.run e;
  match !got with
  | Some r -> check_int "two hops on the ring" 2 r.Net.hops
  | None -> Alcotest.fail "not delivered"

let test_relay_drop () =
  let e = Engine.create () in
  let topo = Topology.ring ~n:4 ~bandwidth_bps:1_000_000 ~latency:(Time.us 50) in
  let net = Net.create e topo () in
  let got = ref false in
  Net.set_handler net 2 (fun _ -> got := true);
  (* Both ring paths 0->2 pass through 1 or 3; make both drop. *)
  Net.set_relay_policy net 1 (fun ~src:_ ~dst:_ ~cls:_ -> false);
  Net.set_relay_policy net 3 (fun ~src:_ ~dst:_ ~cls:_ -> false);
  ignore (Net.send net ~src:0 ~dst:2 ~cls:Net.Data ~size_bytes:100 ());
  Engine.run e;
  check_bool "dropped by Byzantine relay" false !got;
  check_int "drop counted" 1 (Net.stats net).Net.messages_dropped_by_relay

let test_route_avoid () =
  let e = Engine.create () in
  let topo = Topology.ring ~n:4 ~bandwidth_bps:1_000_000 ~latency:(Time.us 50) in
  let net = Net.create e topo () in
  let hops = ref 0 in
  Net.set_handler net 2 (fun r -> hops := r.Net.hops);
  Net.set_route_avoid net [ 1 ];
  ignore (Net.send net ~src:0 ~dst:2 ~cls:Net.Data ~size_bytes:100 ());
  Engine.run e;
  check_int "routed the long way around" 2 !hops;
  Net.set_route_avoid net [ 1; 3 ];
  check_bool "no route left" false
    (Net.send net ~src:0 ~dst:2 ~cls:Net.Data ~size_bytes:100 ())

(* A route names its relays: the sender hands each hop to the node the
   route recorded, never to another member of the link. On bus {0,1,2}
   with links {2,3} and {1,3}, the route 0->3 around node 1 relays
   through 2, although 1 is as near to 3; a policy on 1 that drops
   everything must never see the message. *)
let test_route_names_its_relays () =
  let e = Engine.create () in
  let link link_id members =
    { Topology.link_id; members; bandwidth_bps = 1_000_000; latency = Time.us 50 }
  in
  let topo =
    Topology.create ~nodes:[ 0; 1; 2; 3 ]
      ~links:[ link 0 [ 0; 1; 2 ]; link 1 [ 2; 3 ]; link 2 [ 1; 3 ] ]
  in
  let net = Net.create e topo () in
  let asked = ref 0 and got = ref None and seen_by_1 = ref false in
  Net.set_relay_policy net 1 (fun ~src:_ ~dst:_ ~cls:_ ->
      incr asked;
      false);
  Net.set_handler net 1 (fun _ -> seen_by_1 := true);
  Net.set_handler net 3 (fun r -> got := Some r);
  Net.set_route_avoid net [ 1 ];
  check_bool "routed" true (Net.send net ~src:0 ~dst:3 ~cls:Net.Data ~size_bytes:100 ());
  Engine.run e;
  (match !got with
  | Some r -> check_int "delivered in two hops" 2 r.Net.hops
  | None -> Alcotest.fail "not delivered");
  check_int "no relay drop" 0 (Net.stats net).Net.messages_dropped_by_relay;
  check_int "relay 2 charged the data bytes" 100 (Net.bytes_sent_by net 2 Net.Data);
  check_int "node 1 charged nothing" 0 (Net.bytes_sent_by net 1 Net.Data);
  check_int "node 1's policy never asked" 0 !asked;
  check_bool "node 1 never handed the message" false !seen_by_1

(* Routes are cached per (src, dst): changing the avoid list must flush
   them, both when a relay becomes avoided and when it is cleared. *)
let test_route_cache_follows_avoid () =
  let e = Engine.create () in
  let topo = Topology.ring ~n:5 ~bandwidth_bps:1_000_000 ~latency:(Time.us 50) in
  let net = Net.create e topo () in
  let hops = ref 0 in
  Net.set_handler net 2 (fun r -> hops := r.Net.hops);
  let send () =
    ignore (Net.send net ~src:0 ~dst:2 ~cls:Net.Data ~size_bytes:100 ());
    Engine.run e;
    !hops
  in
  check_int "short way while nothing is avoided" 2 (send ());
  Net.set_route_avoid net [ 1 ];
  check_int "long way round once 1 is avoided" 3 (send ());
  Net.set_route_avoid net [];
  check_int "short way again once cleared" 2 (send ())

let test_transfer_time_matches_delivery () =
  let e, net = mk_net ~n:4 () in
  let topo = Net.topology net in
  let predicted =
    Net.transfer_time (routes topo) (Net.shares_for topo None) ~cls:Net.Data ~src:0 ~dst:3
      ~size_bytes:2500
  in
  if predicted = Time.infinity then Alcotest.fail "route expected";
  let measured = ref Time.zero in
  Net.set_handler net 3 (fun r -> measured := r.Net.delivered_at);
  ignore (Net.send net ~src:0 ~dst:3 ~cls:Net.Data ~size_bytes:2500 ());
  Engine.run e;
  check_int "queueing-free prediction exact" predicted !measured

let test_stats_and_accounting () =
  let e, net = mk_net () in
  Net.set_handler net 1 (fun _ -> ());
  ignore (Net.send net ~src:0 ~dst:1 ~cls:Net.Data ~size_bytes:300 ());
  ignore (Net.send net ~src:0 ~dst:1 ~cls:Net.Control ~size_bytes:200 ());
  Engine.run e;
  let s = Net.stats net in
  check_int "sent" 2 s.Net.messages_sent;
  check_int "delivered" 2 s.Net.messages_delivered;
  check_int "bytes" 500 s.Net.bytes_sent;
  check_int "data bytes by sender" 300 (Net.bytes_sent_by net 0 Net.Data);
  check_int "control bytes by sender" 200 (Net.bytes_sent_by net 0 Net.Control)

let test_residual_loss () =
  let e = Engine.create () in
  let topo = Topology.fully_connected ~n:2 ~bandwidth_bps:1_000_000 ~latency:(Time.us 1) in
  let net = Net.create e topo ~residual_loss:1.0 () in
  let got = ref false in
  Net.set_handler net 1 (fun _ -> got := true);
  ignore (Net.send net ~src:0 ~dst:1 ~cls:Net.Data ~size_bytes:10 ());
  Engine.run e;
  check_bool "lossy link drops" false !got;
  check_int "loss counted" 1 (Net.stats net).Net.messages_lost

let prop_clique_routes_exist =
  QCheck.Test.make ~name:"every pair routes in a clique with <= 1 hop" ~count:50
    QCheck.(pair (int_range 2 10) (pair (int_bound 9) (int_bound 9)))
    (fun (n, (a, b)) ->
      let a = a mod n and b = b mod n in
      let topo = Topology.fully_connected ~n ~bandwidth_bps:1000 ~latency:1 in
      match Topology.path (routes topo) ~src:a ~dst:b with
      | Some path -> List.length path = if a = b then 0 else 1
      | None -> false)

let prop_ring_route_is_shortest =
  QCheck.Test.make ~name:"ring routes take min(cw, ccw) hops" ~count:100
    QCheck.(pair (int_range 3 12) (pair (int_bound 11) (int_bound 11)))
    (fun (n, (a, b)) ->
      let a = a mod n and b = b mod n in
      let topo = Topology.ring ~n ~bandwidth_bps:1000 ~latency:1 in
      let dist = (b - a + n) mod n in
      let expect = Stdlib.min dist (n - dist) in
      match Topology.path (routes topo) ~src:a ~dst:b with
      | Some path -> List.length path = expect
      | None -> false)

(* Reference model for the sweeps: the breadth-first search every route
   query used before sweeps expanded each link at most once. Each
   dequeued node re-reads every member of each of its links, which is
   O(n²) on a bus, and a node other than [dst] is entered only if it
   may relay. Each hop is the link taken and the node it reaches. *)
let ref_route topo ~usable ~src ~dst =
  if src = dst then Some []
  else begin
    let prev = Hashtbl.create 16 and visited = Hashtbl.create 16 in
    Hashtbl.replace visited src ();
    let q = Queue.create () in
    Queue.push src q;
    let found = ref false in
    while (not !found) && not (Queue.is_empty q) do
      let here = Queue.pop q in
      List.iter
        (fun (l : Topology.link) ->
          List.iter
            (fun m ->
              if m <> here && (not (Hashtbl.mem visited m)) && (m = dst || usable m)
              then begin
                Hashtbl.replace visited m ();
                Hashtbl.replace prev m (here, l);
                if m = dst then found := true else Queue.push m q
              end)
            l.members)
        (Topology.links_of_node topo here)
    done;
    let rec rebuild acc n =
      if n = src then acc
      else
        let p, l = Hashtbl.find prev n in
        rebuild ((l, n) :: acc) p
    in
    if !found then Some (rebuild [] dst) else None
  end

(* Random topologies over 2-9 nodes: generators, plus overlapping
   multi-member links with shuffled members and shuffled link ids, so
   one node sits on several buses and member order matters. *)
let gen_topology =
  let open QCheck.Gen in
  let bw = 1000 and latency = Time.us 1 in
  let shuffled xs =
    map
      (fun keys ->
        List.map snd
          (List.sort (fun (a, _) (b, _) -> Int.compare a b) (List.combine keys xs)))
      (list_repeat (List.length xs) nat)
  in
  let random_links n =
    int_range 1 (2 * n) >>= fun count ->
    list_repeat count
      (int_range 2 n >>= fun size ->
       map (fun ns -> List.filteri (fun i _ -> i < size) ns) (shuffled (List.init n Fun.id)))
    >>= fun memberships ->
    map
      (fun ids ->
        Topology.create ~nodes:(List.init n Fun.id)
          ~links:
            (List.map2
               (fun link_id members -> { Topology.link_id; members; bandwidth_bps = bw; latency })
               ids memberships))
      (shuffled (List.init count Fun.id))
  in
  int_range 2 9 >>= fun n ->
  frequency
    [
      (1, return (Topology.ring ~n ~bandwidth_bps:bw ~latency));
      (1, map (fun hub -> Topology.star ~n ~hub ~bandwidth_bps:bw ~latency) (int_bound (n - 1)));
      (1, return (Topology.dual_bus ~n ~bandwidth_bps:bw ~latency));
      (1, return (Topology.fully_connected ~n ~bandwidth_bps:bw ~latency));
      (4, random_links n);
    ]
  >>= fun topo ->
  map
    (fun avoid -> (topo, List.sort_uniq Int.compare avoid))
    (list_size (int_bound 3) (int_bound (n - 1)))

let arb_topology =
  QCheck.make gen_topology ~print:(fun (topo, avoid) ->
      Format.asprintf "%a@.avoid=[%s]" Topology.pp topo
        (String.concat "," (List.map string_of_int avoid)))

(* A route table's [path] and [path_cost] against the reference route,
   for every pair of nodes, a node with itself, and ids that are not
   nodes. Every relay a route names is usable and sits on both links
   next to it. Costs are the forward sums over the reference route of
   [Net.link_transfer_time] for both classes and of a cost that tells
   links apart, and [Time.infinity] where there is no route. *)
let table_matches_reference topo table avoid =
  let usable n = not (List.mem n avoid) in
  let shares = Net.shares_for topo None in
  let link_costs =
    (fun (l : Topology.link) -> (7 * l.link_id) + List.length l.members)
    :: List.map
         (fun cls -> Net.link_transfer_time shares ~cls ~size_bytes:96)
         [ Net.Data; Net.Control ]
  in
  let ids = -1 :: 99 :: Topology.nodes topo in
  let rec relays_valid = function
    | (h : Topology.hop) :: (h' :: _ as rest) ->
      usable h.next
      && List.mem h.next h.link.members
      && List.mem h.next h'.link.members
      && relays_valid rest
    | [ _ ] | [] -> true
  in
  List.for_all
    (fun src ->
      List.for_all
        (fun dst ->
          let expect = ref_route topo ~usable ~src ~dst in
          let path = Topology.path table ~src ~dst in
          Option.map (List.map (fun (h : Topology.hop) -> (h.link, h.next))) path = expect
          && (match path with Some p -> relays_valid p | None -> true)
          && List.for_all
               (fun link_cost ->
                 Topology.path_cost table ~link_cost ~src ~dst
                 = match expect with
                   | None -> Time.infinity
                   | Some route ->
                     List.fold_left (fun acc (l, _) -> Time.add acc (link_cost l)) Time.zero route)
               link_costs)
        ids)
    ids

let ref_connected topo avoid =
  let usable n = not (List.mem n avoid) in
  match List.filter usable (Topology.nodes topo) with
  | [] -> true
  | first :: rest -> List.for_all (fun n -> ref_route topo ~usable ~src:first ~dst:n <> None) rest

(* Routers on fresh sweeps, and routers on one shared set of sweeps
   whose every fault-free sweep has already run, so they reuse each one
   their avoid set does not relay in. The shared ones answer the
   generated avoid set and every single node, which covers a relay of
   each ring route and each source avoiding itself. *)
let prop_sweeps_match_reference =
  QCheck.Test.make ~name:"link-once sweeps match the reference BFS" ~count:300
    arb_topology (fun (topo, avoid) ->
      let fresh a = Topology.router (Topology.sweeps topo) ~avoid:a in
      let shared = Topology.sweeps topo in
      let on_shared a = Topology.router shared ~avoid:a in
      let avoid_sets = avoid :: List.map (fun n -> [ n ]) (Topology.nodes topo) in
      List.for_all
        (fun a -> Topology.connected (fresh a) = ref_connected topo a)
        [ []; avoid ]
      && List.for_all (fun a -> table_matches_reference topo (fresh a) a) [ []; avoid ]
      && table_matches_reference topo (on_shared []) []
      && List.for_all
           (fun a ->
             table_matches_reference topo (on_shared a) a
             && Topology.connected (on_shared a) = ref_connected topo a)
           avoid_sets)

(* Net's tables key on packed ids, so the largest id [Net.create]
   accepts must not alias a smaller one, the next id up is refused, and
   a send to an id that is not a node finds no route even where its
   packed key would equal a cached pair's. *)
let test_packed_id_range () =
  let top = (1 lsl 30) - 1 in
  let link id a b =
    { Topology.link_id = id; members = [ a; b ]; bandwidth_bps = 1_000_000; latency = Time.us 10 }
  in
  let e = Engine.create () in
  let topo = Topology.create ~nodes:[ 0; 1; top ] ~links:[ link top 0 top; link 0 0 1 ] in
  let net = Net.create e topo () in
  let got = ref [] in
  List.iter (fun n -> Net.set_handler net n (fun r -> got := (r.Net.src, n) :: !got)) [ 0; 1; top ];
  List.iter
    (fun (src, dst, cls, size) ->
      check_bool "routed" true (Net.send net ~src ~dst ~cls ~size_bytes:size ()))
    [ (1, 0, Net.Data, 10); (top, 0, Net.Control, 20); (0, top, Net.Data, 40) ];
  check_bool "an id past the range is no node" false
    (Net.send net ~src:0 ~dst:(1 lsl 30) ~cls:Net.Data ~size_bytes:1 ());
  Engine.run e;
  check_int "all delivered" 3 (List.length !got);
  check_bool "to the right nodes" true
    (List.for_all (fun p -> List.mem p !got) [ (1, 0); (top, 0); (0, top) ]);
  check_int "top's control bytes" 20 (Net.bytes_sent_by net top Net.Control);
  check_int "top's data bytes" 0 (Net.bytes_sent_by net top Net.Data);
  check_int "0's data bytes" 40 (Net.bytes_sent_by net 0 Net.Data);
  check_int "1's data bytes" 10 (Net.bytes_sent_by net 1 Net.Data);
  Alcotest.check_raises "node id past 2^30 - 1"
    (Invalid_argument "Net.create: node id 1073741824 outside 0..1073741823") (fun () ->
      ignore
        (Net.create e
           (Topology.create ~nodes:[ 0; top + 1 ] ~links:[ link 0 0 (top + 1) ])
           ()));
  Alcotest.check_raises "negative link id"
    (Invalid_argument "Net.create: link id -1 outside 0..1073741823") (fun () ->
      ignore (Net.create e (Topology.create ~nodes:[ 0; 1 ] ~links:[ link (-1) 0 1 ]) ()))

let suite =
  [
    ("topology validation", `Quick, test_topology_validation);
    ("topology generators", `Quick, test_generators);
    ("routing", `Quick, test_routing);
    ("connectivity without faulty nodes", `Quick, test_connected_without);
    ("send and receive", `Quick, test_send_receive);
    ("latency model", `Quick, test_latency_model);
    ("per-sender queueing", `Quick, test_queueing);
    ("control class bypasses data queue", `Quick, test_classes_do_not_queue_against_each_other);
    ("multi-hop store and forward", `Quick, test_multi_hop);
    ("Byzantine relay drops transit traffic", `Quick, test_relay_drop);
    ("routing avoids known-faulty relays", `Quick, test_route_avoid);
    ("transfer_time predicts delivery", `Quick, test_transfer_time_matches_delivery);
    ("statistics and bandwidth accounting", `Quick, test_stats_and_accounting);
    ("residual loss drops messages", `Quick, test_residual_loss);
    QCheck_alcotest.to_alcotest prop_clique_routes_exist;
    QCheck_alcotest.to_alcotest prop_ring_route_is_shortest;
    ("route cache follows the avoid list", `Quick, test_route_cache_follows_avoid);
    QCheck_alcotest.to_alcotest prop_sweeps_match_reference;
    ("packed ids: the range edge, and ids past it", `Quick, test_packed_id_range);
    ("routes name their relays", `Quick, test_route_names_its_relays);
  ]
