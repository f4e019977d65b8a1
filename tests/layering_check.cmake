# Layering seam: the proving layers (verify, schema, lia, cs) never include
# the service layer nor forward-declare its types. Durable verdicts cross
# into src/svc only through verify::ResultStore (src/verify/pipeline.h),
# which svc implements.
#
#   cmake -DROOT=<repo> -P tests/layering_check.cmake
#
# Registered as the `layering_test` ctest; fails listing every offending
# line.
set(bad "")
foreach(layer verify schema lia cs)
  file(GLOB_RECURSE sources "${ROOT}/src/${layer}/*")
  foreach(f ${sources})
    file(STRINGS "${f}" hits
         REGEX "^[ \t]*(#[ \t]*include[ \t]*[\"<]svc/|namespace[ \t]+ctaver::svc)")
    foreach(h ${hits})
      string(APPEND bad "\n  ${f}: ${h}")
    endforeach()
  endforeach()
endforeach()
if(bad)
  message(FATAL_ERROR "proving layers reach into src/svc:${bad}")
endif()
