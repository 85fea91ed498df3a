# Smoke-tests `jockey_cli run <scenario.yaml>`: a checked-in scenario must run to
# completion, write deterministic JSON/JSONL artifacts, and reject malformed input
# with a file:line diagnostic.
set(SCENARIO ${SCENARIO_DIR}/fig6_overload.yaml)
set(JSON1 ${CMAKE_CURRENT_BINARY_DIR}/cli_scenario_1.json)
set(JSON2 ${CMAKE_CURRENT_BINARY_DIR}/cli_scenario_2.json)
set(EPISODES ${CMAKE_CURRENT_BINARY_DIR}/cli_scenario.jsonl)

execute_process(COMMAND ${CLI} run ${SCENARIO} --json ${JSON1} --episodes-out ${EPISODES}
                        --no-cache
                RESULT_VARIABLE rc OUTPUT_VARIABLE first_out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "scenario run failed: ${rc}\n${first_out}")
endif()
if(NOT first_out MATCHES "scenario fig6_overload")
  message(FATAL_ERROR "summary missing the scenario name:\n${first_out}")
endif()
file(READ ${JSON1} json1)
if(NOT json1 MATCHES "\"kind\":\"episode\"")
  message(FATAL_ERROR "summary JSON missing episode records:\n${json1}")
endif()
file(READ ${EPISODES} episodes)
if(NOT episodes MATCHES "\"episode\":\"w0.jobF#0\"")
  message(FATAL_ERROR "episodes JSONL missing the episode line:\n${episodes}")
endif()

# Determinism: a rerun produces identical bytes (stdout and JSON artifact).
execute_process(COMMAND ${CLI} run ${SCENARIO} --json ${JSON2} --no-cache
                RESULT_VARIABLE rc OUTPUT_VARIABLE second_out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "scenario rerun failed: ${rc}")
endif()
if(NOT first_out STREQUAL second_out)
  message(FATAL_ERROR "scenario run is not deterministic:\n--- first ---\n${first_out}\n--- second ---\n${second_out}")
endif()
file(READ ${JSON2} json2)
if(NOT json1 STREQUAL json2)
  message(FATAL_ERROR "scenario JSON is not deterministic")
endif()

# Malformed input: rejected with the file:line diagnostic, non-zero exit.
set(BAD ${CMAKE_CURRENT_BINARY_DIR}/cli_scenario_bad.yaml)
file(WRITE ${BAD} "name: bad\nworkload:\n  - job: Z\n    deadline: tight\n")
execute_process(COMMAND ${CLI} run ${BAD} --no-cache
                RESULT_VARIABLE rc ERROR_VARIABLE err_out)
if(rc EQUAL 0)
  message(FATAL_ERROR "malformed scenario was accepted")
endif()
if(NOT err_out MATCHES "cli_scenario_bad.yaml:3:" OR NOT err_out MATCHES "workload\\[0\\].job")
  message(FATAL_ERROR "diagnostic missing file:line or field path:\n${err_out}")
endif()

# A non-finite number is rejected at its line and field, not run with an infinite
# deadline.
set(INF ${CMAKE_CURRENT_BINARY_DIR}/cli_scenario_inf.yaml)
file(WRITE ${INF} "name: inf\nworkload:\n  - job: A\n    deadline: {minutes: inf}\n")
execute_process(COMMAND ${CLI} run ${INF} --no-cache
                RESULT_VARIABLE rc ERROR_VARIABLE err_out)
if(rc EQUAL 0)
  message(FATAL_ERROR "scenario with an infinite deadline was accepted")
endif()
if(NOT err_out MATCHES "cli_scenario_inf.yaml:4:"
   OR NOT err_out MATCHES "workload\\[0\\].deadline.minutes")
  message(FATAL_ERROR "diagnostic missing file:line or field path:\n${err_out}")
endif()
