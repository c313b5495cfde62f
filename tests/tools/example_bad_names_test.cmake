# The examples name organizations, sync policies, disk scheduling and
# parity placement through one shared lookup, and they and the service
# tools parse numbers whole: an unknown or unsupported value or a
# malformed number must exit non-zero with a message naming it, never run
# a default in its place or die on an uncaught exception. A retired flag
# (raidsim_cli's fail-slow knobs, now the one --tail) is an unknown flag.
#
# Invoked as:
#   cmake -DEXAMPLES_DIR=<dir> -DTOOLS_DIR=<dir> -DWORK_DIR=<dir>
#         -P example_bad_names_test.cmake

if(NOT EXAMPLES_DIR OR NOT TOOLS_DIR OR NOT WORK_DIR)
  message(FATAL_ERROR
    "usage: cmake -DEXAMPLES_DIR=... -DTOOLS_DIR=... -DWORK_DIR=... -P ...")
endif()
file(MAKE_DIRECTORY "${WORK_DIR}")

# expect_rejected(<stderr regex> <program> <args>...): exit code 2 and a
# stderr line matching the regex. <program> is an example or, failing
# that, a tool.
function(expect_rejected pattern program)
  set(path "${EXAMPLES_DIR}/${program}")
  if(NOT EXISTS "${path}")
    set(path "${TOOLS_DIR}/${program}")
  endif()
  execute_process(COMMAND "${path}" ${ARGN}
    WORKING_DIRECTORY "${WORK_DIR}"
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "${program} ${ARGN}: expected exit 2, got ${rc}\n${out}${err}")
  endif()
  if(NOT err MATCHES "${pattern}")
    message(FATAL_ERROR "${program} ${ARGN}: stderr lacks '${pattern}':\n${err}")
  endif()
endfunction()

# expect_failed(<stderr regex> <program> <args>...): a non-zero exit code
# that is not an abort (134) or a signal, and a stderr line matching the
# regex.
function(expect_failed pattern program)
  execute_process(COMMAND "${EXAMPLES_DIR}/${program}" ${ARGN}
    WORKING_DIRECTORY "${WORK_DIR}"
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc MATCHES "^[0-9]+$" OR rc EQUAL 0 OR rc EQUAL 134)
    message(FATAL_ERROR "${program} ${ARGN}: expected a non-zero exit, got ${rc}\n${out}${err}")
  endif()
  if(NOT err MATCHES "${pattern}")
    message(FATAL_ERROR "${program} ${ARGN}: stderr lacks '${pattern}':\n${err}")
  endif()
endfunction()

expect_rejected("unknown parity placement 'ends'" raidsim_cli --parity-placement=ends)
expect_rejected("unknown organization 'raid9'" raidsim_cli --org=raid9)
expect_rejected("unknown sync policy 'rf/pr'" raidsim_cli --sync=rf/pr)
expect_rejected("unknown disk scheduling 'lifo'" raidsim_cli --sched=lifo)
expect_rejected("unknown flag: --hedge-delay=5" raidsim_cli --hedge-delay=5)
expect_rejected("unknown flag: --redirect-on-slow" raidsim_cli --redirect-on-slow)
expect_rejected("unknown organization 'raid9'" cache_tuning trace2 raid9)
expect_rejected("unknown organization 'raid9'" failure_drill raid9)
expect_rejected("no redundancy" failure_drill base)
expect_rejected("RAID4 with a cache" failure_drill raid4)
expect_rejected("bad number in flag: --scale=0.01x" raidsim_cli --trace=trace2 --scale=0.01x --org=raid5 --json)
expect_rejected("bad number in scale: 0.01x" trace_tools generate trace2 0.01x x.trace)
expect_rejected("bad number in scale: abc" cache_tuning trace2 raid5 abc)
expect_rejected("bad number in scale: 0.01x" quickstart 0.01x)
expect_rejected("bad number in scale: 0.01x" organization_shootout trace2 0.01x)
expect_rejected("bad number in N: 4x" organization_shootout trace2 0.01 4x)
expect_rejected("bad number in scale: 0.01x" hot_spot_analysis trace2 0.01x)
expect_rejected("bad number in scale: 0.01x" tail_drill 8 0.01x)
expect_rejected("bad number in N: 10x" failure_drill raid5 10x)
expect_rejected("bad number in writes: 2x" crash_drill 2x)
expect_rejected("bad number in --workers: 2x" raidsim_serve --workers 2x)
expect_rejected("bad number in --queue: abc" raidsim_serve --queue abc)
expect_rejected("bad number in --stuck-ms: 1e" raidsim_serve --stuck-ms 1e)
expect_rejected("bad number in --clients: 1x" raidsim_load --socket none.sock --clients 1x)
expect_rejected("bad number in --scale: 0.01q" raidsim_load --socket none.sock --scale 0.01q)
expect_rejected("bad number in --interval-ms: 5q" raidsim_top --socket none.sock --interval-ms 5q --once)
expect_failed("cannot open '/nonexistent.trace'" trace_tools analyze /nonexistent.trace)
expect_failed("unknown preset 'trace3'" trace_tools generate trace3 0.01 y.trace)
expect_failed("unknown preset 'trace3'" cache_tuning trace3)

message(STATUS "examples and tools reject unknown names and bad numbers with exit 2 and bad inputs without aborting")
