# trace_tools replay accepts every organization the simulator models:
# generate a small binary trace, then replay it under each organization
# name (RAID4 with --cached, the only way the paper evaluates it).
#
# Invoked as:
#   cmake -DTRACE_TOOLS=<path> -DWORK_DIR=<dir> -P trace_tools_replay_test.cmake

if(NOT TRACE_TOOLS OR NOT WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DTRACE_TOOLS=... -DWORK_DIR=... -P ...")
endif()
file(MAKE_DIRECTORY "${WORK_DIR}")
set(TRACE "${WORK_DIR}/x.btrace")

execute_process(COMMAND "${TRACE_TOOLS}" generate trace2 0.01 "${TRACE}"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "generate failed (rc=${rc}): ${out}${err}")
endif()

foreach(org base mirror raid5 raid4 parstrip raid10)
  set(flags)
  if(org STREQUAL "raid4")
    set(flags --cached)
  endif()
  execute_process(COMMAND "${TRACE_TOOLS}" replay "${TRACE}" ${org} ${flags}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "replay ${org} ${flags} failed (rc=${rc}): ${out}${err}")
  endif()
  if(NOT out MATCHES "mean response")
    message(FATAL_ERROR "replay ${org} ${flags} printed no results: ${out}")
  endif()
endforeach()

message(STATUS "trace_tools replays every organization")
