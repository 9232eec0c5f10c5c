(* Bechamel microbenchmarks for the building blocks whose cost the
   paper's architecture leans on: event-queue throughput, signing and
   verification, replica replay, routing, and offline planning. *)

open Bechamel
open Toolkit
module Time = Btr_util.Time

let topo = lazy (Btr_net.Topology.fully_connected ~n:8 ~bandwidth_bps:10_000_000 ~latency:(Time.us 50))
let avionics = lazy (Btr_workload.Generators.avionics ~n_nodes:8)

let bench_event_queue =
  Test.make ~name:"engine: schedule+run 1000 events"
    (Staged.stage (fun () ->
         let e = Btr_sim.Engine.create () in
         for i = 1 to 1000 do
           Btr_sim.Engine.schedule e ~at:(i * 7 mod 997) (fun _ -> ())
         done;
         Btr_sim.Engine.run e))

let bench_sign =
  let auth = Btr_crypto.Auth.create () in
  let key = Btr_crypto.Auth.gen_key auth ~owner:0 in
  Test.make ~name:"auth: sign 64B"
    (Staged.stage (fun () ->
         ignore (Btr_crypto.Auth.sign auth key "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef")))

let bench_verify =
  let auth = Btr_crypto.Auth.create () in
  let key = Btr_crypto.Auth.gen_key auth ~owner:0 in
  let msg = String.make 64 'x' in
  let tag = Btr_crypto.Auth.sign auth key msg in
  Test.make ~name:"auth: verify 64B"
    (Staged.stage (fun () -> ignore (Btr_crypto.Auth.verify auth ~signer:0 msg tag)))

let bench_replay =
  let inputs =
    [ { Btr.Behavior.orig_flow = 0; value = [| 1.0; 2.0 |] };
      { Btr.Behavior.orig_flow = 1; value = [| 3.0 |] } ]
  in
  Test.make ~name:"checker: replay + digest one task"
    (Staged.stage (fun () ->
         match Btr.Behavior.default_compute 7 ~period:42 ~inputs with
         | Some v -> ignore (Btr.Behavior.value_digest v)
         | None -> ()))

(* A fresh router per run, so each run pays for one sweep. *)
let bench_route =
  Test.make ~name:"topology: route across 8-clique"
    (Staged.stage (fun () ->
         let routes =
           Btr_net.Topology.router (Btr_net.Topology.sweeps (Lazy.force topo)) ~avoid:[]
         in
         ignore (Btr_net.Topology.path routes ~src:0 ~dst:7)))

let bench_plan =
  Test.make ~name:"planner: full strategy (8 nodes, f=1)"
    (Staged.stage (fun () ->
         let cfg = Btr_planner.Planner.default_config ~f:1 ~recovery_bound:(Time.sec 1) in
         match Btr_planner.Planner.build cfg (Lazy.force avionics) (Lazy.force topo) with
         | Ok _ -> ()
         | Error _ -> assert false))

let bench_period =
  Test.make ~name:"runtime: one second of avionics (fault-free)"
    (Staged.stage (fun () ->
         let s =
           Btr.Scenario.spec ~workload:(Lazy.force avionics)
             ~topology:(Lazy.force topo) ~f:1 ~recovery_bound:(Time.ms 200)
             ~horizon:(Time.sec 1) ()
         in
         match Btr.Scenario.run s with Ok _ -> () | Error _ -> assert false))

let benchmarks =
  Test.make_grouped ~name:"btr"
    [ bench_event_queue; bench_sign; bench_verify; bench_replay; bench_route;
      bench_plan; bench_period ]

let run () =
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Bechamel.Time.second 0.5) () in
  let instances = Instance.[ monotonic_clock ] in
  let raw = Benchmark.all cfg instances benchmarks in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Btr_util.Table.sorted_fold ~cmp:String.compare
      (fun name o acc ->
        match Analyze.OLS.estimates o with
        | Some (est :: _) -> (name, est) :: acc
        | _ -> acc)
      results []
  in
  List.iter
    (fun (name, est) -> Printf.printf "  %-50s %14.1f ns/run\n" name est)
    (List.sort (fun (a, _) (b, _) -> String.compare a b) rows)
