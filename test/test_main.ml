let () =
  Alcotest.run "sqlfun"
    [ Test_decimal.suite; Test_lexer.suite; Test_parser.suite; Test_json.suite;
      Test_calendar.suite; Test_inet_geo_xml.suite; Test_engine.suite; Test_dialects.suite; Test_study.suite; Test_soft.suite; Test_functions.suite; Test_harness.suite; Test_cast.suite; Test_joins.suite; Test_coverage.suite; Test_explain.suite; Test_value.suite;
      Test_telemetry.suite; Test_report.suite; Test_parallel.suite; Test_kernels.suite;
      Test_instrumentation.suite ]
