# Header self-sufficiency gate.
#
# Every public header under src/ must compile when it is the FIRST thing
# a translation unit includes — no leaning on whatever the previous
# include happened to drag in.  lad_lint's include-transitive rule polices
# the symbol-level version of this for existing TUs; this gate catches the
# header that was only ever included after its dependencies and so never
# had to name them.
#
# Mechanism: one generated TU per header, `#include "<hdr>"` and nothing
# else, all compiled into an OBJECT library that is excluded from the
# default build.  `ctest -L lint` (and the CI lint job) builds the target;
# a header missing an include fails with the compiler's own diagnostic
# pointing into the header, which is exactly the message we want.
function(lad_add_header_selfchecks)
  file(GLOB_RECURSE lad_public_headers
       RELATIVE "${PROJECT_SOURCE_DIR}/src"
       CONFIGURE_DEPENDS "${PROJECT_SOURCE_DIR}/src/*.h")
  list(SORT lad_public_headers)
  set(tus)
  foreach(hdr IN LISTS lad_public_headers)
    string(MAKE_C_IDENTIFIER "${hdr}" ident)
    set(tu "${CMAKE_BINARY_DIR}/header_selfcheck/${ident}.cpp")
    # file(CONFIGURE) only rewrites on content change, so reconfiguring
    # does not dirty the generated objects.
    file(CONFIGURE OUTPUT "${tu}" CONTENT
"// Generated by LadHeaderCheck.cmake: ${hdr} must be self-sufficient.
#include \"${hdr}\"
")
    list(APPEND tus "${tu}")
  endforeach()

  add_library(lad_header_selfcheck OBJECT EXCLUDE_FROM_ALL ${tus})
  target_include_directories(lad_header_selfcheck
    PRIVATE "${PROJECT_SOURCE_DIR}/src")
  target_compile_features(lad_header_selfcheck PRIVATE cxx_std_20)
  lad_apply_warnings(lad_header_selfcheck)
  lad_apply_werror(lad_header_selfcheck)

  list(LENGTH lad_public_headers n_headers)
  # The one-header TUs are independent, so the build runs one compile per
  # logical core; RUN_SERIAL keeps other ctest jobs off those cores.
  cmake_host_system_information(RESULT n_cores QUERY NUMBER_OF_LOGICAL_CORES)
  add_test(NAME lint.header_selfcheck
    COMMAND "${CMAKE_COMMAND}" --build "${CMAKE_BINARY_DIR}"
            --target lad_header_selfcheck --parallel ${n_cores})
  set_tests_properties(lint.header_selfcheck PROPERTIES
    LABELS "lint"
    RUN_SERIAL TRUE)  # drives the build tool; don't race parallel ctest jobs
  message(STATUS "lad: header self-sufficiency gate covers ${n_headers} headers")
endfunction()
