let () =
  Alcotest.run "lancet-repro"
    [
      ("vm", Test_vm.suite);
      ("lms", Test_lms.suite);
      ("mini", Test_mini.suite);
      ("lancet", Test_lancet.suite);
      ("tiering", Test_tiering.suite);
      ("bgjit", Test_bgjit.suite);
      ("ic", Test_ic.suite);
      ("obs", Test_obs.suite);
      ("forensics", Test_forensics.suite);
      ("irtrace", Test_irtrace.suite);
      ("provenance", Test_provenance.suite);
      ("csv", Test_csv.suite);
      ("optiml", Test_optiml.suite);
      ("safeint", Test_safeint.suite);
      ("extras", Test_extras.suite);
      ("persist", Test_persist.suite);
      ("chaos", Test_chaos.suite);
      ("osr", Test_osr.suite);
      ("native", Test_native.suite);
    ]
