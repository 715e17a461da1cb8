# Runs one bench and compares its stdout and stderr byte for byte with
# the golden files recorded for it. Each golden file starts with one
# header line naming the compiler it was recorded with; the comparison
# skips that line. A golden file may be re-recorded only by a change
# that explains every line that moved.
# Run as: cmake -DBENCH=<path> -DNAME=<golden name> [-DARGS=<a;b>]
#               -DGOLDEN_DIR=<dir> -DOUT_DIR=<dir> -P check_golden.cmake

foreach(var BENCH NAME GOLDEN_DIR OUT_DIR)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "pass -D${var}=...")
    endif()
endforeach()

execute_process(COMMAND "${BENCH}" ${ARGS}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${NAME}: exit ${rc}:\n${err}")
endif()

set(failed "")
foreach(stream stdout stderr)
    file(READ "${GOLDEN_DIR}/${NAME}.${stream}" golden)
    string(FIND "${golden}" "\n" eol)
    math(EXPR body_start "${eol} + 1")
    string(SUBSTRING "${golden}" ${body_start} -1 golden)
    if(stream STREQUAL "stdout")
        set(got "${out}")
    else()
        set(got "${err}")
    endif()
    if(NOT got STREQUAL golden)
        set(actual "${OUT_DIR}/golden_${NAME}.${stream}")
        file(WRITE "${actual}" "${got}")
        string(APPEND failed
            "  ${stream} differs: diff <(tail -n +2 "
            "${GOLDEN_DIR}/${NAME}.${stream}) ${actual}\n")
    endif()
endforeach()
if(failed)
    message(FATAL_ERROR "${NAME}: output drifted from its golden "
        "files:\n${failed}")
endif()
message(STATUS "${NAME}: stdout and stderr match the golden files")
