let () =
  Alcotest.run "timestamp-space"
    [ Test_prog.suite;
      Test_history.suite;
      Test_sim.suite;
      Test_schedule.suite;
      Test_snapshot.suite;
      Test_timestamp.suite;
      Test_simple_oneshot.suite;
      Test_sqrt.suite;
      Test_longlived_impls.suite;
      Test_checker.suite;
      Test_covering.suite;
      Test_adversary.suite;
      Test_ablation.suite;
      Test_explore.suite;
      Test_explore_v2.suite;
      Test_explore_v3.suite;
      Test_bounded.suite;
      Test_swap.suite;
      Test_k_exclusion.suite;
      Test_misc.suite;
      Test_renaming_tob.suite;
      Test_abd.suite;
      Test_api.suite;
      Test_mp_clocks.suite;
      Test_apps.suite;
      Test_multicore.suite;
      Test_obs.suite;
      Test_hdr.suite;
      Test_telemetry.suite;
      Test_svc.suite;
      Test_net.suite;
      Test_fuzz.suite;
      Test_model.suite ]
