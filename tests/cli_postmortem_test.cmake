# Drives `jockey_cli postmortem` end to end: a seeded traced run (plain and under a
# fault plan) must yield byte-identical postmortem output — table and JSON — on
# every rerun, the --deadline verdict must render, and --strict must reject a
# malformed trace, or one with a key its kind does not define, with the offending
# line number.
set(TRACE ${CMAKE_CURRENT_BINARY_DIR}/cli_pm.trace)
set(CACHE_DIR ${CMAKE_CURRENT_BINARY_DIR}/cli_pm_cache)
set(JSONL ${CMAKE_CURRENT_BINARY_DIR}/cli_pm_events.jsonl)
set(PLAN ${CMAKE_CURRENT_BINARY_DIR}/cli_pm_plan.jsonl)
set(FAULTED ${CMAKE_CURRENT_BINARY_DIR}/cli_pm_faulted.jsonl)
set(PM1 ${CMAKE_CURRENT_BINARY_DIR}/cli_pm_1.json)
set(PM2 ${CMAKE_CURRENT_BINARY_DIR}/cli_pm_2.json)
set(PMF ${CMAKE_CURRENT_BINARY_DIR}/cli_pm_faulted.json)
set(BROKEN ${CMAKE_CURRENT_BINARY_DIR}/cli_pm_broken.jsonl)
file(REMOVE_RECURSE ${CACHE_DIR})

execute_process(COMMAND ${CLI} train ${SCRIPT} --trace ${TRACE} --tokens 25 RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "train failed: ${rc}")
endif()

execute_process(COMMAND ${CLI} run ${SCRIPT} ${TRACE} --deadline 30 --seed 11
                        --cache-dir ${CACHE_DIR} --trace-out ${JSONL}
                RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "traced run failed: ${rc}")
endif()

# Postmortem twice: stdout and JSON must be byte-identical across reruns.
execute_process(COMMAND ${CLI} postmortem ${JSONL} --deadline 30 --json ${PM1}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out1)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "postmortem failed: ${rc}")
endif()
execute_process(COMMAND ${CLI} postmortem ${JSONL} --deadline 30 --json ${PM2}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out2)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "postmortem rerun failed: ${rc}")
endif()
if(NOT out1 STREQUAL out2)
  message(FATAL_ERROR "postmortem table differs between reruns")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${PM1} ${PM2} RESULT_VARIABLE same)
if(NOT same EQUAL 0)
  message(FATAL_ERROR "postmortem JSON is not byte-identical across reruns")
endif()

# The budget table, verdict, and calibration sections must all render.
if(NOT out1 MATCHES "exec")
  message(FATAL_ERROR "postmortem did not render the budget table:\n${out1}")
endif()
if(NOT out1 MATCHES "Deadline")
  message(FATAL_ERROR "postmortem did not render the deadline verdict:\n${out1}")
endif()
if(NOT out1 MATCHES "calibration")
  message(FATAL_ERROR "postmortem did not render the calibration section:\n${out1}")
endif()

# A faulted chaos trace (multi-run, blackout windows) must also analyze cleanly
# and deterministically.
file(WRITE ${PLAN} "{\"kind\":\"fault_plan\",\"seed\":3}\n{\"kind\":\"control_blackout\",\"start\":60,\"end\":180}\n")
execute_process(COMMAND ${CLI} chaos ${SCRIPT} ${TRACE} --deadline 30 --seeds 2
                        --fault-plan ${PLAN} --cache-dir ${CACHE_DIR} --trace-out ${FAULTED}
                RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "chaos run for the faulted trace failed: ${rc}")
endif()
execute_process(COMMAND ${CLI} postmortem ${FAULTED} --deadline 30 --json ${PMF}
                RESULT_VARIABLE rc OUTPUT_VARIABLE faulted1)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "postmortem on the faulted trace failed: ${rc}")
endif()
if(NOT faulted1 MATCHES "4 run")
  message(FATAL_ERROR "faulted chaos trace did not segment into 4 runs:\n${faulted1}")
endif()
execute_process(COMMAND ${CLI} postmortem ${FAULTED} --deadline 30
                RESULT_VARIABLE rc OUTPUT_VARIABLE faulted2)
if(NOT faulted1 STREQUAL faulted2)
  message(FATAL_ERROR "faulted postmortem differs between reruns")
endif()

# Strict mode: a malformed line must fail with its line number and field.
file(WRITE ${BROKEN} "{\"t\":1,\"kind\":\"job_submit\",\"job\":0,\"tokens\":5}\n{\"t\":2,\"kind\":\"task_ready\",\"job\":0}\n")
execute_process(COMMAND ${CLI} postmortem ${BROKEN} --strict
                RESULT_VARIABLE rc ERROR_VARIABLE strict_err OUTPUT_QUIET)
if(rc EQUAL 0)
  message(FATAL_ERROR "--strict accepted a malformed trace")
endif()
if(NOT strict_err MATCHES ":2:")
  message(FATAL_ERROR "--strict did not report the malformed line number:\n${strict_err}")
endif()
# A key the kind does not define is malformed too: whatever --strict accepts
# re-writes to its own bytes.
file(WRITE ${BROKEN} "{\"t\":1,\"kind\":\"job_submit\",\"job\":0,\"tokens\":5}\n{\"t\":2,\"kind\":\"machine_recover\",\"machine\":7,\"extra\":1}\n")
execute_process(COMMAND ${CLI} postmortem ${BROKEN} --strict
                RESULT_VARIABLE rc ERROR_VARIABLE strict_err OUTPUT_QUIET)
if(rc EQUAL 0)
  message(FATAL_ERROR "--strict accepted a line with an undefined key")
endif()
if(NOT strict_err MATCHES ":2:.*extra")
  message(FATAL_ERROR "--strict did not name the line and the undefined key:\n${strict_err}")
endif()
# Lenient mode skips a malformed line, but when that line was a job_submit every
# later event of its job would drop out of the analysis unseen: the postmortem
# must count them on stderr and fail.
file(READ ${JSONL} traced)
string(REGEX REPLACE "(\"kind\":\"job_submit\"[^\n]*)}\n" "\\1,\"extra\":1}\n" traced
       "${traced}")
file(WRITE ${BROKEN} "${traced}")
execute_process(COMMAND ${CLI} postmortem ${BROKEN}
                RESULT_VARIABLE rc ERROR_VARIABLE lenient_err OUTPUT_QUIET)
if(rc EQUAL 0)
  message(FATAL_ERROR "lenient postmortem passed a trace whose job_submit was skipped")
endif()
if(NOT lenient_err MATCHES "1 malformed line skipped" OR
   NOT lenient_err MATCHES "events naming a job with no job_submit in their run: [1-9]")
  message(FATAL_ERROR "lenient postmortem did not count the unsubmitted events:\n${lenient_err}")
endif()
file(REMOVE_RECURSE ${CACHE_DIR})
