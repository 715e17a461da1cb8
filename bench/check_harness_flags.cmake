# Validates the shared harness flag parsing (bench/common.hh
# initHarness): a malformed --fault-seed must exit 2 with the usage
# line, and a well-formed one must run.
# Run as: cmake -DBENCH=<path to a bench binary> -P check_harness_flags.cmake

if(NOT DEFINED BENCH)
    message(FATAL_ERROR "pass -DBENCH=<path>")
endif()

foreach(args "--fault-seed;xyz" "--fault-seed;-1" "--fault-seed;12abc"
        "--fault-seed;")
    execute_process(COMMAND "${BENCH}" ${args}
        RESULT_VARIABLE rc
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err)
    string(REPLACE ";" " " shown "${args}")
    if(NOT rc EQUAL 2)
        message(FATAL_ERROR "${BENCH} ${shown}: exit ${rc}, want 2")
    endif()
    if(NOT err MATCHES "usage: .*--fault-seed <n>")
        message(FATAL_ERROR
            "${BENCH} ${shown}: no usage line on stderr:\n${err}")
    endif()
endforeach()

foreach(seed "7" "0x10")
    execute_process(COMMAND "${BENCH}" --fault-seed ${seed}
        RESULT_VARIABLE rc
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "${BENCH} --fault-seed ${seed}: exit ${rc}:\n"
            "${err}")
    endif()
endforeach()

message(STATUS "harness flag validation looks good")
