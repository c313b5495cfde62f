# paper_claims --trace-out traces every point of a row, function points
# (rows whose points build their own trace or simulator) as well as
# config points: point i writes <prefix>_<i>.trace.json. With --verbose
# the row lists one "[i: label: ...]" line per distinct point, so the
# test expects exactly that many artifacts.
#
# Invoked as:
#   cmake -DPAPER_CLAIMS=<path> -DWORK_DIR=<dir> -P paper_claims_trace_out_test.cmake

if(NOT PAPER_CLAIMS OR NOT WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DPAPER_CLAIMS=... -DWORK_DIR=... -P ...")
endif()

# expect_one_trace_per_point(<row>): run <row> traced at a length short
# enough to keep its artifacts small, then check them.
function(expect_one_trace_per_point row)
  set(dir "${WORK_DIR}/${row}")
  file(REMOVE_RECURSE "${dir}")
  file(MAKE_DIRECTORY "${dir}")
  execute_process(COMMAND "${PAPER_CLAIMS}" ${row} --scale1=0.0003
            --scale2=0.002 --threads=2 --verbose "--trace-out=${dir}/p"
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  # At this length some asserted claims fail (exit 1); the tables and
  # their artifacts are what is checked here.
  if(NOT (rc EQUAL 0 OR rc EQUAL 1))
    message(FATAL_ERROR "paper_claims ${row}: exit ${rc}\n${out}${err}")
  endif()
  string(REGEX MATCHALL "\n\\[[0-9]+: " points "\n${out}")
  string(REPLACE "[" "" points "${points}")  # a bracket stops list splitting
  list(LENGTH points n)
  if(n EQUAL 0)
    message(FATAL_ERROR "paper_claims ${row} --verbose listed no points:\n${out}")
  endif()
  file(GLOB artifacts "${dir}/p_*.trace.json")
  list(LENGTH artifacts written)
  if(NOT written EQUAL n)
    message(FATAL_ERROR
      "paper_claims ${row}: ${n} points but ${written} .trace.json files")
  endif()
  math(EXPR last "${n} - 1")
  foreach(i RANGE ${last})
    set(path "${dir}/p_${i}.trace.json")
    if(NOT EXISTS "${path}")
      message(FATAL_ERROR "paper_claims ${row}: no ${path}")
    endif()
    file(READ "${path}" head LIMIT 512)
    if(NOT head MATCHES "\"traceEvents\"")
      message(FATAL_ERROR "paper_claims ${row}: ${path} is not a trace")
    endif()
  endforeach()
  file(REMOVE_RECURSE "${dir}")
  message(STATUS "paper_claims ${row}: ${n} points, ${n} traces")
endfunction()

expect_one_trace_per_point(fail_slow)             # function points
expect_one_trace_per_point(abl_skew_sensitivity)  # function points
expect_one_trace_per_point(fig05)                 # config points
