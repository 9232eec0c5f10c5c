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

let test_routing () =
  let ring = Topology.ring ~n:6 ~bandwidth_bps:1000 ~latency:(Time.us 1) in
  (match Topology.route ring ~src:0 ~dst:3 with
  | Some path -> check_int "ring 0->3 hops" 3 (List.length path)
  | None -> Alcotest.fail "route expected");
  (match Topology.route ring ~src:2 ~dst:2 with
  | Some [] -> ()
  | _ -> Alcotest.fail "self route should be empty");
  match Topology.route_avoiding ring ~avoid:[ 1; 5 ] ~src:0 ~dst:3 with
  | None -> ()
  | Some _ -> Alcotest.fail "0->3 must be cut when 1 and 5 cannot relay"

let test_connected_without () =
  let star = Topology.star ~n:5 ~hub:0 ~bandwidth_bps:1000 ~latency:(Time.us 1) in
  check_bool "star loses hub" false (Topology.connected_without star [ 0 ]);
  check_bool "star loses spoke ok" true (Topology.connected_without star [ 3 ]);
  let fc = Topology.fully_connected ~n:4 ~bandwidth_bps:1000 ~latency:(Time.us 1) in
  check_bool "clique survives any single failure" true
    (Topology.connected_without fc [ 2 ])

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
        (Time.us (4000 * 1_000_000 / Net.reserved_rate net 0
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
  let predicted =
    match Net.transfer_time net ~src:0 ~dst:3 ~cls:Net.Data ~size_bytes:2500 with
    | Some t -> t
    | None -> Alcotest.fail "route expected"
  in
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
      match Topology.route topo ~src:a ~dst:b with
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
      match Topology.route topo ~src:a ~dst:b with
      | Some path -> List.length path = expect
      | None -> false)

(* Reference model for the sweeps: the breadth-first search every route
   query used before sweeps expanded each link at most once. Each
   dequeued node re-reads every member of each of its links, which is
   O(n²) on a bus, and a node other than [dst] is entered only if it
   may relay. *)
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
        rebuild (l :: acc) p
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

let prop_sweeps_match_reference =
  QCheck.Test.make ~name:"link-once sweeps match the reference BFS" ~count:300
    arb_topology (fun (topo, avoid) ->
      let nodes = Topology.nodes topo in
      let usable n = not (List.mem n avoid) in
      let link_cost (l : Topology.link) = (7 * l.link_id) + List.length l.members in
      let cost_of path = List.fold_left (fun acc l -> acc + link_cost l) 0 path in
      let ref_connected =
        match List.filter usable nodes with
        | [] -> true
        | first :: rest ->
          List.for_all (fun n -> ref_route topo ~usable ~src:first ~dst:n <> None) rest
      in
      Topology.connected_without topo avoid = ref_connected
      && List.for_all
           (fun src ->
             let paths = Topology.paths_from topo ~usable ~src in
             let costs = Topology.cost_from topo ~usable ~src ~link_cost in
             List.for_all
               (fun dst ->
                 let expect = ref_route topo ~usable ~src ~dst in
                 Topology.route_avoiding topo ~avoid ~src ~dst = expect
                 && Topology.route topo ~src ~dst
                    = ref_route topo ~usable:(fun _ -> true) ~src ~dst
                 && Topology.path_to paths ~dst = expect
                 && Topology.reached paths dst = (expect <> None)
                 && Topology.cost_to costs dst = Option.map cost_of expect)
               nodes)
           nodes)

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
  ]
