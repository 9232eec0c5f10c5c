let () =
  Alcotest.run "btr"
    [
      ("util", Test_util.suite);
      ("obs", Test_obs.suite);
      ("sim", Test_sim.suite);
      ("wheel", Test_wheel.suite);
      ("crypto", Test_crypto.suite);
      ("net", Test_net.suite);
      ("workload", Test_workload.suite);
      ("sched", Test_sched.suite);
      ("plant", Test_plant.suite);
      ("evidence", Test_evidence.suite);
      ("authlog", Test_authlog.suite);
      ("detect", Test_detect.suite);
      ("planner", Test_planner.suite);
      ("modeswitch", Test_modeswitch.suite);
      ("check", Test_check.suite);
      ("incr", Test_incr.suite);
      ("lint", Test_lint.suite);
      ("core", Test_core.suite);
      ("campaign", Test_campaign.suite);
      ("orchestrate", Test_orchestrate.suite);
      ("runtime", Test_runtime.suite);
      ("conformance", Test_conformance.suite);
      ("baselines", Test_baselines.suite);
      ("exports", Test_exports.suite);
    ]
