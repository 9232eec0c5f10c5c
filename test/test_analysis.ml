open Btr_util
module A = Btr_sched.Analysis

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let t ?deadline ~c ~p () = A.task ~wcet:(Time.ms c) ~period:(Time.ms p) ?deadline ()

let test_task_validation () =
  Alcotest.check_raises "deadline > period"
    (Invalid_argument "Analysis.task: deadline > period") (fun () ->
      ignore (A.task ~wcet:1 ~period:10 ~deadline:20 ()));
  Alcotest.check_raises "zero wcet" (Invalid_argument "Analysis.task: wcet <= 0")
    (fun () -> ignore (A.task ~wcet:0 ~period:10 ()))

let test_utilization () =
  Alcotest.(check (float 1e-9)) "sum of C/T" 0.75
    (A.utilization [ t ~c:1 ~p:4 (); t ~c:5 ~p:10 () ])

let test_response_times () =
  (* Classic example: C=(1,2,3), T=D=(4,6,12). RTA: R1=1, R2=3, R3=10. *)
  let ts = [ t ~c:1 ~p:4 (); t ~c:2 ~p:6 (); t ~c:3 ~p:12 () ] in
  (match A.response_times ts with
  | [ Some r1; Some r2; Some r3 ] ->
    check_int "R1" (Time.ms 1) r1;
    check_int "R2" (Time.ms 3) r2;
    check_int "R3" (Time.ms 10) r3
  | _ -> Alcotest.fail "expected three response times");
  check_bool "fp schedulable" true (A.fp_schedulable ts)

let gen_taskset =
  QCheck.Gen.(
    let* n = 1 -- 4 in
    list_repeat n
      (let* p_ms = 2 -- 20 in
       let* c_ms = 1 -- p_ms in
       let* d_ms = c_ms -- p_ms in
       return (A.task ~wcet:(Time.ms c_ms) ~period:(Time.ms p_ms) ~deadline:(Time.ms d_ms) ())))

(* Reference model: preemptive fixed priorities, deadline-monotonic
   with ties broken by list position (the order [response_times]
   assumes), synchronous release at 0. A job misses when it finishes
   after its deadline or is still unfinished at its task's next release
   (deadline <= period, so that release is at or past the deadline). *)
let fp_deadline_misses ts =
  let tasks = Array.of_list ts in
  let n = Array.length tasks in
  let by_prio =
    List.stable_sort
      (fun i j -> Time.compare tasks.(i).A.deadline tasks.(j).A.deadline)
      (List.init n Fun.id)
  in
  let hyperperiod = Array.fold_left (fun acc t -> Time.lcm acc t.A.period) 1 tasks in
  let remaining = Array.make n 0 and due = Array.make n 0 in
  let misses = ref 0 in
  let now = ref 0 in
  while !now < hyperperiod do
    Array.iteri
      (fun i t ->
        if !now mod t.A.period = 0 then begin
          if remaining.(i) > 0 then incr misses;
          remaining.(i) <- t.A.wcet;
          due.(i) <- !now + t.A.deadline
        end)
      tasks;
    let next =
      Array.fold_left (fun acc t -> Time.min acc ((!now / t.A.period + 1) * t.A.period))
        Time.infinity tasks
    in
    let rec work () =
      match List.find_opt (fun i -> remaining.(i) > 0) by_prio with
      | Some i when !now < next ->
        let slice = Time.min remaining.(i) (next - !now) in
        remaining.(i) <- remaining.(i) - slice;
        now := !now + slice;
        if remaining.(i) = 0 && !now > due.(i) then incr misses;
        work ()
      | _ -> now := next
    in
    work ()
  done;
  Array.iter (fun r -> if r > 0 then incr misses) remaining;
  !misses

let prop_fp_matches_simulation =
  QCheck.Test.make
    ~name:"fp_schedulable iff no deadline miss in fixed-priority simulation"
    ~count:300
    (QCheck.make gen_taskset)
    (fun ts -> A.fp_schedulable ts = (fp_deadline_misses ts = 0))

let suite =
  [
    ("task validation", `Quick, test_task_validation);
    ("utilization", `Quick, test_utilization);
    ("response-time analysis (classic example)", `Quick, test_response_times);
    QCheck_alcotest.to_alcotest prop_fp_matches_simulation;
  ]
