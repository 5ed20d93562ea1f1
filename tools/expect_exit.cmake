# ctest helper for the run_campaign flag-rejection tests
# (tools/CMakeLists.txt): run `BIN --store STORE FLAG VALUE` and pass only
# when it exits 2, names FLAG on stderr and leaves no file at STORE.
#
#   cmake -DBIN=... -DSTORE=... -DFLAG=--threads -DVALUE=-1 -P expect_exit.cmake
execute_process(COMMAND "${BIN}" --store "${STORE}" "${FLAG}" "${VALUE}"
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc STREQUAL "2")
  message(FATAL_ERROR "${FLAG} '${VALUE}': exit '${rc}', expected 2: ${err}")
endif()
string(FIND "${err}" "${FLAG}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "${FLAG} '${VALUE}': stderr does not name the flag: ${err}")
endif()
if(EXISTS "${STORE}")
  message(FATAL_ERROR "${FLAG} '${VALUE}': a rejected run created ${STORE}")
endif()
